//! Compiled, vectorized expression programs.
//!
//! [`ScalarExpr`]/[`Predicate`] trees are walked per tuple by
//! `eval`, paying recursive dispatch through boxed children for every
//! row. The vectorized operators instead compile each tree **once** at
//! task construction into a flat postfix program ([`CompiledExpr`],
//! [`CompiledPredicate`]) and evaluate it a whole page at a time into
//! reusable scratch buffers ([`ExprScratch`]): one typed column gather
//! per leaf, one tight loop per operator, no per-row allocation or
//! dispatch. Predicates produce a **selection vector** (the indices of
//! passing rows) rather than per-tuple booleans, which downstream
//! operators consume with bulk row copies.
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
//! [`Instr::SubLitF`] / [`Instr::MulFLit`], mirroring the
//! `CmpColLit*` predicate fast paths), so `extendedprice *
//! (1 - discount)` runs two in-place passes over one gathered column
//! instead of broadcasting page-length literal buffers.

use crate::error::ExecError;
use crate::expr::{like_match, CmpOp, Predicate, ScalarExpr};
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
/// and the mask stack. One scratch per task; buffers are recycled so a
/// steady-state page evaluation allocates nothing.
#[derive(Debug, Default)]
pub struct ExprScratch {
    stack: Vec<Buf>,
    free_i: Vec<Vec<i64>>,
    free_f: Vec<Vec<f64>>,
    free_d: Vec<Vec<i32>>,
    masks: Vec<Vec<bool>>,
    free_m: Vec<Vec<bool>>,
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
    fn take_m(&mut self) -> Vec<bool> {
        let mut m = self.free_m.pop().unwrap_or_default();
        m.clear();
        m
    }

    fn recycle(&mut self, buf: Buf) {
        match buf {
            Buf::I(v) => self.free_i.push(v),
            Buf::F(v) => self.free_f.push(v),
            Buf::D(v) => self.free_d.push(v),
        }
    }

    fn recycle_mask(&mut self, m: Vec<bool>) {
        self.free_m.push(m);
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

/// A string comparison operand (only columns and literals can be
/// string-typed).
#[derive(Debug, Clone)]
enum StrOperand {
    Col(usize),
    Lit(String),
}

/// One postfix instruction of a compiled predicate. Comparison leaves
/// push a boolean mask; `And`/`Or`/`Not` combine masks.
#[derive(Debug, Clone)]
enum PInstr {
    /// Push an all-true mask.
    True,
    /// Fast path: `Int column <op> literal` — gather + compare, no
    /// program machinery.
    CmpColLitI { col: usize, op: CmpOp, lit: i64 },
    /// Fast path: `Float column <op> literal`.
    CmpColLitF { col: usize, op: CmpOp, lit: f64 },
    /// Fast path: `Date column <op> literal`.
    CmpColLitD { col: usize, op: CmpOp, lit: i32 },
    /// General Int ⋈ Int comparison.
    CmpII {
        l: NumProgram,
        r: NumProgram,
        op: CmpOp,
    },
    /// General Date ⋈ Date comparison.
    CmpDD {
        l: NumProgram,
        r: NumProgram,
        op: CmpOp,
    },
    /// General numeric comparison through `f64` (mixed int/float).
    CmpFF {
        l: NumProgram,
        r: NumProgram,
        op: CmpOp,
    },
    /// String comparison (trailing spaces trimmed, as `get_str` does).
    CmpSS {
        l: StrOperand,
        r: StrOperand,
        op: CmpOp,
    },
    /// `%`-wildcard LIKE over a string column.
    Like { col: usize, pattern: String },
    /// Pop `n` masks, push their conjunction (`n == 0` pushes true).
    And(usize),
    /// Pop `n` masks, push their disjunction (`n == 0` pushes false).
    Or(usize),
    /// Negate the top mask in place.
    Not,
}

/// A predicate compiled for page-at-a-time evaluation into selection
/// vectors.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    instrs: Vec<PInstr>,
}

impl CompiledPredicate {
    /// Compiles `pred` against the input `schema`, erring on type
    /// errors (incomparable operand types, LIKE over a non-string
    /// column, out-of-range columns).
    pub fn compile(pred: &Predicate, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        let mut instrs = Vec::new();
        compile_pred(pred, schema, &mut instrs)?;
        Ok(Self { instrs })
    }

    /// Evaluates over all rows of `page`, appending the indices of
    /// passing rows to `sel` (cleared first) in ascending order.
    pub fn select(&self, page: &Page, scratch: &mut ExprScratch, sel: &mut Vec<u32>) {
        let mask = self.eval_mask(page, scratch);
        sel.clear();
        sel.extend(
            mask.iter()
                .enumerate()
                .filter_map(|(r, &keep)| keep.then_some(r as u32)),
        );
        scratch.recycle_mask(mask);
    }

    /// Evaluates over all rows of `page`, returning the boolean mask
    /// (recycled internally on the next call through the same scratch).
    fn eval_mask(&self, page: &Page, scratch: &mut ExprScratch) -> Vec<bool> {
        let n = page.rows();
        debug_assert!(scratch.masks.is_empty());
        for instr in &self.instrs {
            match instr {
                PInstr::True => {
                    let mut m = scratch.take_m();
                    m.resize(n, true);
                    scratch.masks.push(m);
                }
                PInstr::CmpColLitI { col, op, lit } => {
                    let mut vals = scratch.take_i();
                    page.gather_i64(*col, &mut vals);
                    let mut m = scratch.take_m();
                    cmp_fill_lit(&vals, *lit, *op, &mut m);
                    scratch.free_i.push(vals);
                    scratch.masks.push(m);
                }
                PInstr::CmpColLitF { col, op, lit } => {
                    let mut vals = scratch.take_f();
                    page.gather_f64(*col, &mut vals);
                    let mut m = scratch.take_m();
                    cmp_fill_lit(&vals, *lit, *op, &mut m);
                    scratch.free_f.push(vals);
                    scratch.masks.push(m);
                }
                PInstr::CmpColLitD { col, op, lit } => {
                    let mut vals = scratch.take_d();
                    page.gather_date(*col, &mut vals);
                    let mut m = scratch.take_m();
                    cmp_fill_lit(&vals, *lit, *op, &mut m);
                    scratch.free_d.push(vals);
                    scratch.masks.push(m);
                }
                PInstr::CmpII { l, r, op } => {
                    let (Buf::I(a), Buf::I(b)) =
                        (l.eval_take(page, scratch), r.eval_take(page, scratch))
                    else {
                        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
                        unreachable!("CmpII over non-int buffers");
                    };
                    let mut m = scratch.take_m();
                    cmp_fill(&a, &b, *op, &mut m);
                    scratch.free_i.push(a);
                    scratch.free_i.push(b);
                    scratch.masks.push(m);
                }
                PInstr::CmpDD { l, r, op } => {
                    let (Buf::D(a), Buf::D(b)) =
                        (l.eval_take(page, scratch), r.eval_take(page, scratch))
                    else {
                        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
                        unreachable!("CmpDD over non-date buffers");
                    };
                    let mut m = scratch.take_m();
                    cmp_fill(&a, &b, *op, &mut m);
                    scratch.free_d.push(a);
                    scratch.free_d.push(b);
                    scratch.masks.push(m);
                }
                PInstr::CmpFF { l, r, op } => {
                    let (Buf::F(a), Buf::F(b)) =
                        (l.eval_take(page, scratch), r.eval_take(page, scratch))
                    else {
                        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
                        unreachable!("CmpFF over non-float buffers");
                    };
                    let mut m = scratch.take_m();
                    cmp_fill(&a, &b, *op, &mut m);
                    scratch.free_f.push(a);
                    scratch.free_f.push(b);
                    scratch.masks.push(m);
                }
                PInstr::CmpSS { l, r, op } => {
                    let mut m = scratch.take_m();
                    for t in page.tuples() {
                        let a = match l {
                            StrOperand::Col(c) => t.get_str(*c),
                            StrOperand::Lit(s) => s.as_str(),
                        };
                        let b = match r {
                            StrOperand::Col(c) => t.get_str(*c),
                            StrOperand::Lit(s) => s.as_str(),
                        };
                        m.push(op.holds(a.cmp(b)));
                    }
                    scratch.masks.push(m);
                }
                PInstr::Like { col, pattern } => {
                    let mut m = scratch.take_m();
                    m.extend(page.tuples().map(|t| like_match(t.get_str(*col), pattern)));
                    scratch.masks.push(m);
                }
                PInstr::And(0) => {
                    let mut m = scratch.take_m();
                    m.resize(n, true);
                    scratch.masks.push(m);
                }
                PInstr::Or(0) => {
                    let mut m = scratch.take_m();
                    m.resize(n, false);
                    scratch.masks.push(m);
                }
                PInstr::And(k) => {
                    for _ in 1..*k {
                        // lint: allow(compiled predicates keep k masks on the stack here)
                        let top = scratch.masks.pop().expect("mask stack underflow");
                        // lint: allow(compiled predicates keep k masks on the stack here)
                        let dst = scratch.masks.last_mut().expect("mask stack underflow");
                        for (d, s) in dst.iter_mut().zip(&top) {
                            *d &= *s;
                        }
                        scratch.recycle_mask(top);
                    }
                }
                PInstr::Or(k) => {
                    for _ in 1..*k {
                        // lint: allow(compiled predicates keep k masks on the stack here)
                        let top = scratch.masks.pop().expect("mask stack underflow");
                        // lint: allow(compiled predicates keep k masks on the stack here)
                        let dst = scratch.masks.last_mut().expect("mask stack underflow");
                        for (d, s) in dst.iter_mut().zip(&top) {
                            *d |= *s;
                        }
                        scratch.recycle_mask(top);
                    }
                }
                PInstr::Not => {
                    // lint: allow(Not follows a mask-producing instruction by construction)
                    let m = scratch.masks.last_mut().expect("mask stack underflow");
                    for b in m.iter_mut() {
                        *b = !*b;
                    }
                }
            }
        }
        // lint: allow(compiled predicate programs net exactly one mask)
        let mask = scratch.masks.pop().expect("predicate leaves one mask");
        debug_assert!(scratch.masks.is_empty());
        debug_assert_eq!(mask.len(), n);
        mask
    }
}

/// Fills `mask` with `vals[r] <op> lit` (branch on `op` hoisted out of
/// the row loop). NaN operands follow IEEE: `Ne` true, all else false.
fn cmp_fill_lit<T: PartialOrd + Copy>(vals: &[T], lit: T, op: CmpOp, mask: &mut Vec<bool>) {
    mask.clear();
    match op {
        CmpOp::Eq => mask.extend(vals.iter().map(|&x| x == lit)),
        CmpOp::Ne => mask.extend(vals.iter().map(|&x| x != lit)),
        CmpOp::Lt => mask.extend(vals.iter().map(|&x| x < lit)),
        CmpOp::Le => mask.extend(vals.iter().map(|&x| x <= lit)),
        CmpOp::Gt => mask.extend(vals.iter().map(|&x| x > lit)),
        CmpOp::Ge => mask.extend(vals.iter().map(|&x| x >= lit)),
    }
}

/// Fills `mask` with `a[r] <op> b[r]`. NaN operands follow IEEE:
/// `Ne` true, all else false.
fn cmp_fill<T: PartialOrd + Copy>(a: &[T], b: &[T], op: CmpOp, mask: &mut Vec<bool>) {
    mask.clear();
    let pairs = a.iter().zip(b);
    match op {
        CmpOp::Eq => mask.extend(pairs.map(|(&x, &y)| x == y)),
        CmpOp::Ne => mask.extend(pairs.map(|(&x, &y)| x != y)),
        CmpOp::Lt => mask.extend(pairs.map(|(&x, &y)| x < y)),
        CmpOp::Le => mask.extend(pairs.map(|(&x, &y)| x <= y)),
        CmpOp::Gt => mask.extend(pairs.map(|(&x, &y)| x > y)),
        CmpOp::Ge => mask.extend(pairs.map(|(&x, &y)| x >= y)),
    }
}

fn compile_pred(
    pred: &Predicate,
    schema: &Arc<Schema>,
    instrs: &mut Vec<PInstr>,
) -> Result<(), ExecError> {
    match pred {
        Predicate::True => instrs.push(PInstr::True),
        Predicate::Cmp { left, op, right } => compile_cmp(left, *op, right, schema, instrs)?,
        Predicate::And(ps) => {
            for p in ps {
                compile_pred(p, schema, instrs)?;
            }
            instrs.push(PInstr::And(ps.len()));
        }
        Predicate::Or(ps) => {
            for p in ps {
                compile_pred(p, schema, instrs)?;
            }
            instrs.push(PInstr::Or(ps.len()));
        }
        Predicate::Not(p) => {
            compile_pred(p, schema, instrs)?;
            instrs.push(PInstr::Not);
        }
        Predicate::Like { col, pattern } => {
            let dtype = schema
                .fields()
                .get(*col)
                .map(|f| f.dtype)
                .ok_or_else(|| crate::plan::column_range_error("LIKE", *col, schema))?;
            if !matches!(dtype, DataType::Str(_)) {
                return Err(ExecError::plan(format!(
                    "LIKE over non-string column {col} ({dtype:?})"
                )));
            }
            instrs.push(PInstr::Like {
                col: *col,
                pattern: pattern.clone(),
            });
        }
    }
    Ok(())
}

fn compile_cmp(
    left: &ScalarExpr,
    op: CmpOp,
    right: &ScalarExpr,
    schema: &Arc<Schema>,
    instrs: &mut Vec<PInstr>,
) -> Result<(), ExecError> {
    let (tl, tr) = (
        expr_type_checked(left, schema)?,
        expr_type_checked(right, schema)?,
    );
    let is_str = |t: DataType| matches!(t, DataType::Str(_));
    // Column-vs-literal fast paths for the dominant predicate shape.
    match (left, right, tl, tr) {
        (ScalarExpr::Col(c), ScalarExpr::IntLit(v), DataType::Int, _) => {
            instrs.push(PInstr::CmpColLitI {
                col: *c,
                op,
                lit: *v,
            });
            return Ok(());
        }
        (ScalarExpr::Col(c), ScalarExpr::FloatLit(v), DataType::Float, _) => {
            instrs.push(PInstr::CmpColLitF {
                col: *c,
                op,
                lit: *v,
            });
            return Ok(());
        }
        (ScalarExpr::Col(c), ScalarExpr::DateLit(v), DataType::Date, _) => {
            instrs.push(PInstr::CmpColLitD {
                col: *c,
                op,
                lit: v.0,
            });
            return Ok(());
        }
        _ => {}
    }
    match (tl, tr) {
        (DataType::Int, DataType::Int) => instrs.push(PInstr::CmpII {
            l: NumProgram::compile(left, schema)?,
            r: NumProgram::compile(right, schema)?,
            op,
        }),
        (DataType::Date, DataType::Date) => instrs.push(PInstr::CmpDD {
            l: NumProgram::compile(left, schema)?,
            r: NumProgram::compile(right, schema)?,
            op,
        }),
        (tl, tr) if is_str(tl) && is_str(tr) => instrs.push(PInstr::CmpSS {
            l: str_operand(left)?,
            r: str_operand(right)?,
            op,
        }),
        (DataType::Int | DataType::Float, DataType::Int | DataType::Float) => {
            instrs.push(PInstr::CmpFF {
                l: NumProgram::compile_f64(left, schema)?,
                r: NumProgram::compile_f64(right, schema)?,
                op,
            })
        }
        (tl, tr) => {
            return Err(ExecError::plan(format!(
                "incomparable operand types: {tl:?} vs {tr:?}"
            )))
        }
    }
    Ok(())
}

fn str_operand(expr: &ScalarExpr) -> Result<StrOperand, ExecError> {
    match expr {
        ScalarExpr::Col(c) => Ok(StrOperand::Col(*c)),
        ScalarExpr::StrLit(s) => Ok(StrOperand::Lit(s.clone())),
        other => Err(ExecError::plan(format!(
            "string-typed comparison operand must be a column or literal: {other:?}"
        ))),
    }
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
        let pred = Predicate::And(vec![
            Predicate::col_cmp(0, CmpOp::Ge, -100i64),
            Predicate::col_cmp(1, CmpOp::Ge, 0.0),
        ]);
        let compiled = CompiledPredicate::compile(&pred, p.schema()).expect("compiles");
        for _ in 0..3 {
            compiled.select(&p, &mut scratch, &mut sel);
            assert_eq!(sel.len(), p.rows());
        }
        // Pools hold the recycled buffers; stacks are empty.
        assert!(scratch.stack.is_empty() && scratch.masks.is_empty());
        assert!(!scratch.free_m.is_empty());
    }
}
