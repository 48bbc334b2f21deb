//! Compiled, vectorized expression programs.
//!
//! [`ScalarExpr`]/[`Predicate`] trees are walked per tuple by
//! `eval`, paying recursive dispatch through boxed children for every
//! row. The vectorized operators instead compile their trees **once** at
//! task construction ([`CompiledExprs`], [`CompiledPredicate`]) and
//! evaluate them a whole page at a time into reusable scratch buffers
//! ([`ExprScratch`]), with no per-row allocation or dispatch.
//!
//! Numeric expressions compile, a whole *list* at a time, into one
//! **register program** ([`NumProgram`]): a sequence of nodes — typed
//! column gathers, literals, `Int`→`Float` casts, arithmetic — each
//! naming its operands by the register an earlier node filled. Nodes
//! are hash-consed as they are added (same operation, same operand
//! registers, literals by bit pattern), so across an aggregate's or a
//! projection's whole list every distinct column is gathered once per
//! page and every distinct sub-expression computed once: Q1's seven
//! aggregate inputs are four gathers and four arithmetic passes.
//! Evaluation runs the nodes in order, one tight loop each, into
//! per-register buffers pooled in the scratch; outputs are read from
//! their registers by reference. Sharing never changes a result: every
//! output is the same IEEE operations on the same operands in the same
//! order as its own tree. An operator with one expression
//! ([`CompiledExpr`]) runs a list of one.
//!
//! A predicate **refines a selection vector** — the ascending indices
//! of the rows still passing, which `select` returns and downstream
//! operators consume with bulk row copies. A conjunction runs its
//! clauses in sequence, each shrinking the selection in place, until it
//! is empty; the clauses are ordered at compile time: column-vs-literal
//! leaves (they read their field straight out of the rows still
//! selected; `lit op col` becomes `col op' lit`), then dense numeric
//! compares (both sides one two-output program), then string leaves,
//! which so see only the survivors. `Not` removes what its child keeps
//! of a copy of the selection; `Or` is `Not` of the conjunction of its
//! negated children. A LIKE pattern is split into byte fragments once,
//! and string leaves test the space-trimmed field bytes in place.
//!
//! Semantics match the tree-walking evaluators exactly on well-typed,
//! non-NaN inputs (the root differential fuzzer holds every operator's
//! compiled programs to the reference executor's tree walk, and the
//! root `tests/vectorized_equivalence.rs` compiled predicates and
//! expressions directly; `crates/exec/tests/vectorized_equivalence.rs`
//! holds compiled `LIKE` to the oracle's matcher), with two deliberate
//! differences:
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
//! Scalar literals in float arithmetic fuse into the adjacent node
//! ([`Node::AddFLit`] / [`Node::SubFLit`] / [`Node::SubLitF`] /
//! [`Node::MulFLit`], mirroring the predicates' column-vs-literal
//! leaves), so `extendedprice * (1 - discount)` is two passes over two
//! gathered columns instead of broadcasting page-length literal buffers.

use crate::error::ExecError;
use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::plan::expr_type_checked;
use cordoba_storage::{DataType, Page, Schema};
use std::sync::Arc;

/// Result type of a numeric program node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumType {
    Int,
    Float,
    Date,
}

/// Where a node's result lives: buffer `slot` of its type's pool in the
/// [`ExprScratch`]. Slots count up per type in node order, so a node's
/// operands always sit below its own slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reg {
    ty: NumType,
    slot: usize,
}

/// One node of a numeric program. Type resolution happens at compile
/// time: every node knows the pool of its operands (named by slot) and
/// of its result, so evaluation is a direct match with no per-row type
/// dispatch. Float literals are held as bit patterns, so node equality
/// — what hash-consing merges on — tells `0.0` from `-0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// Gather an `Int` column.
    ColI(usize),
    /// Gather a `Float` column.
    ColF(usize),
    /// Gather a `Date` column.
    ColD(usize),
    /// Broadcast an integer literal.
    LitI(i64),
    /// Broadcast a float literal.
    LitF(u64),
    /// Broadcast a date literal.
    LitD(i32),
    /// Promote an integer register to float.
    CastIF(usize),
    /// Int ⊕ Int → Int. Matches the tree-walk exactly: computed through
    /// `f64` and truncated back (`(a as f64 ⊕ b as f64) as i64`).
    AddI(usize, usize),
    /// See [`Node::AddI`].
    SubI(usize, usize),
    /// See [`Node::AddI`].
    MulI(usize, usize),
    /// Float ⊕ Float → Float (mixed int/float operands are promoted by
    /// [`Node::CastIF`] at compile time).
    AddF(usize, usize),
    /// See [`Node::AddF`].
    SubF(usize, usize),
    /// See [`Node::AddF`].
    MulF(usize, usize),
    /// Fused `reg + lit` (no literal broadcast). Addition commutes
    /// bitwise under IEEE 754, so this also covers `lit + reg`.
    AddFLit(usize, u64),
    /// Fused `reg - lit`.
    SubFLit(usize, u64),
    /// Fused `lit - reg` (subtraction does not commute — `1 - discount`
    /// compiles to `[ColF(discount), SubLitF(0, 1.0)]`).
    SubLitF(usize, u64),
    /// Fused `reg * lit`; covers `lit * reg` as [`Node::AddFLit`] does.
    MulFLit(usize, u64),
}

impl Node {
    fn ty(&self) -> NumType {
        match self {
            Node::ColI(_) | Node::LitI(_) | Node::AddI(..) | Node::SubI(..) | Node::MulI(..) => {
                NumType::Int
            }
            Node::ColD(_) | Node::LitD(_) => NumType::Date,
            _ => NumType::Float,
        }
    }
}

/// Reusable evaluation state: one buffer per program register, pooled
/// by type, and the pool of temporary selections (`Not`/`Or` refine a
/// copy). One scratch per task, shared by every program the task runs
/// (each evaluation overwrites the registers it uses); the buffers keep
/// their capacity, so a steady-state page evaluation allocates nothing.
#[derive(Debug, Default)]
pub struct ExprScratch {
    ints: Vec<Vec<i64>>,
    floats: Vec<Vec<f64>>,
    dates: Vec<Vec<i32>>,
    free_sel: Vec<Vec<u32>>,
}

impl ExprScratch {
    /// The column the last [`NumProgram::evaluate`] left in float register
    /// `reg` (one [`NumProgram::add_f64`] returned).
    pub(crate) fn f64s(&self, reg: Reg) -> &[f64] {
        debug_assert_eq!(reg.ty, NumType::Float);
        &self.floats[reg.slot]
    }
}

/// `out[slot] = f(pool[a], pool[b])`, row by row.
fn zip_into<T: Copy>(pool: &mut [Vec<T>], slot: usize, a: usize, b: usize, f: impl Fn(T, T) -> T) {
    let (done, rest) = pool.split_at_mut(slot);
    let out = &mut rest[0];
    out.clear();
    out.extend(done[a].iter().zip(&done[b]).map(|(&x, &y)| f(x, y)));
}

/// `out[slot] = f(pool[a])` — the fused scalar-literal nodes' one pass.
fn map_into(pool: &mut [Vec<f64>], slot: usize, a: usize, f: impl Fn(f64) -> f64) {
    let (done, rest) = pool.split_at_mut(slot);
    let out = &mut rest[0];
    out.clear();
    out.extend(done[a].iter().map(|&x| f(x)));
}

fn broadcast<T: Copy>(out: &mut Vec<T>, rows: usize, x: T) {
    out.clear();
    out.resize(rows, x);
}

/// Int ⊕ Int as the tree walk computes it: through `f64`, truncated back.
fn via_f64(f: impl Fn(f64, f64) -> f64) -> impl Fn(i64, i64) -> i64 {
    move |x, y| f(x as f64, y as f64) as i64
}

/// Makes sure a pool has a buffer for each of a program's `regs`.
fn grow<T>(pool: &mut Vec<Vec<T>>, regs: usize) {
    if pool.len() < regs {
        pool.resize_with(regs, Vec::new);
    }
}

/// A list of numeric (Int/Float/Date) expressions compiled into one
/// register program; see the module docs. Built by adding expressions
/// one after another: each `add` returns the register its value will be
/// in after [`NumProgram::evaluate`], reusing every node an earlier
/// expression (or sub-expression) already put there.
#[derive(Debug, Clone, Default)]
pub(crate) struct NumProgram {
    /// Each node with the slot it fills, in evaluation order.
    nodes: Vec<(Node, usize)>,
    /// Registers in use per type (`Int`, `Float`, `Date`).
    regs: [usize; 3],
}

impl NumProgram {
    /// Adds `expr`, erring if it is not numeric (string columns or
    /// literals in arithmetic, dates as arithmetic operands).
    fn add(&mut self, expr: &ScalarExpr, schema: &Arc<Schema>) -> Result<Reg, ExecError> {
        match expr {
            ScalarExpr::Col(i) => {
                let field = schema
                    .fields()
                    .get(*i)
                    .ok_or_else(|| crate::plan::column_range_error("expression", *i, schema))?;
                match field.dtype {
                    DataType::Int => Ok(self.push(Node::ColI(*i))),
                    DataType::Float => Ok(self.push(Node::ColF(*i))),
                    DataType::Date => Ok(self.push(Node::ColD(*i))),
                    DataType::Str(_) => Err(ExecError::plan(format!(
                        "string column {i} in a numeric expression"
                    ))),
                }
            }
            ScalarExpr::IntLit(v) => Ok(self.push(Node::LitI(*v))),
            ScalarExpr::FloatLit(v) => Ok(self.push(Node::LitF(v.to_bits()))),
            ScalarExpr::DateLit(v) => Ok(self.push(Node::LitD(v.0))),
            ScalarExpr::StrLit(s) => Err(ExecError::plan(format!(
                "string literal {s:?} in a numeric expression"
            ))),
            ScalarExpr::Add(a, b) => self.add_arith(a, b, schema, &ADD_OPS),
            ScalarExpr::Sub(a, b) => self.add_arith(a, b, schema, &SUB_OPS),
            ScalarExpr::Mul(a, b) => self.add_arith(a, b, schema, &MUL_OPS),
        }
    }

    /// As [`NumProgram::add`], with an `Int` result promoted to `Float`
    /// (the coercion every aggregate input goes through); read the
    /// register with [`ExprScratch::f64s`].
    pub(crate) fn add_f64(
        &mut self,
        expr: &ScalarExpr,
        schema: &Arc<Schema>,
    ) -> Result<Reg, ExecError> {
        let reg = self.add(expr, schema)?;
        if reg.ty == NumType::Date {
            return Err(ExecError::plan(
                "expression over a date column is not numeric",
            ));
        }
        Ok(self.promoted(reg))
    }

    /// The register holding `node`'s result: the one an equal node
    /// already fills, or a fresh one.
    fn push(&mut self, node: Node) -> Reg {
        let ty = node.ty();
        let slot = match self.nodes.iter().find(|(n, _)| *n == node) {
            Some(&(_, slot)) => slot,
            None => {
                let slot = self.regs[ty as usize];
                self.regs[ty as usize] += 1;
                self.nodes.push((node, slot));
                slot
            }
        };
        Reg { ty, slot }
    }

    /// A numeric (non-date) register as float: cast if `Int`.
    fn promoted(&mut self, reg: Reg) -> Reg {
        match reg.ty {
            NumType::Int => self.push(Node::CastIF(reg.slot)),
            _ => reg,
        }
    }

    /// Adds `expr` as an arithmetic operand promoted to float.
    fn add_float_operand(
        &mut self,
        expr: &ScalarExpr,
        schema: &Arc<Schema>,
    ) -> Result<usize, ExecError> {
        let reg = self.add(expr, schema)?;
        if reg.ty == NumType::Date {
            return Err(ExecError::plan("non-numeric (date) operand in arithmetic"));
        }
        Ok(self.promoted(reg).slot)
    }

    fn add_arith(
        &mut self,
        a: &ScalarExpr,
        b: &ScalarExpr,
        schema: &Arc<Schema>,
        ops: &ArithOps,
    ) -> Result<Reg, ExecError> {
        let (ta, tb) = (expr_type_checked(a, schema)?, expr_type_checked(b, schema)?);
        if ta == DataType::Int && tb == DataType::Int {
            let (ra, rb) = (self.add(a, schema)?, self.add(b, schema)?);
            return Ok(self.push((ops.int_op)(ra.slot, rb.slot)));
        }
        // Fused scalar-literal fast paths: a float-typed `expr ⊕ lit` (or
        // `lit ⊕ expr`) is the other side's register plus one node — no
        // broadcast literal buffer, no extra stream pass. Results are
        // bit-identical to the two-register form: the same f64 operation
        // on the same operand values.
        let node = if let Some(lit) = num_literal(b) {
            (ops.fused)(self.add_float_operand(a, schema)?, lit.to_bits())
        } else if let Some(lit) = num_literal(a) {
            (ops.fused_rev)(self.add_float_operand(b, schema)?, lit.to_bits())
        } else {
            let fa = self.add_float_operand(a, schema)?;
            (ops.float_op)(fa, self.add_float_operand(b, schema)?)
        };
        Ok(self.push(node))
    }

    /// Evaluates every node over all rows of `page`, leaving each
    /// register's column in `scratch`.
    pub(crate) fn evaluate(&self, page: &Page, scratch: &mut ExprScratch) {
        let (ints, floats, dates) = (&mut scratch.ints, &mut scratch.floats, &mut scratch.dates);
        let [ni, nf, nd] = self.regs;
        grow(ints, ni);
        grow(floats, nf);
        grow(dates, nd);
        let (rows, lit) = (page.rows(), f64::from_bits);
        for &(node, slot) in &self.nodes {
            match node {
                Node::ColI(c) => page.gather_i64(c, &mut ints[slot]),
                Node::ColF(c) => page.gather_f64(c, &mut floats[slot]),
                Node::ColD(c) => page.gather_date(c, &mut dates[slot]),
                Node::LitI(x) => broadcast(&mut ints[slot], rows, x),
                Node::LitF(x) => broadcast(&mut floats[slot], rows, lit(x)),
                Node::LitD(x) => broadcast(&mut dates[slot], rows, x),
                Node::CastIF(a) => {
                    let out = &mut floats[slot];
                    out.clear();
                    out.extend(ints[a].iter().map(|&x| x as f64));
                }
                Node::AddI(a, b) => zip_into(ints, slot, a, b, via_f64(|x, y| x + y)),
                Node::SubI(a, b) => zip_into(ints, slot, a, b, via_f64(|x, y| x - y)),
                Node::MulI(a, b) => zip_into(ints, slot, a, b, via_f64(|x, y| x * y)),
                Node::AddF(a, b) => zip_into(floats, slot, a, b, |x, y| x + y),
                Node::SubF(a, b) => zip_into(floats, slot, a, b, |x, y| x - y),
                Node::MulF(a, b) => zip_into(floats, slot, a, b, |x, y| x * y),
                Node::AddFLit(a, l) => map_into(floats, slot, a, |x| x + lit(l)),
                Node::SubFLit(a, l) => map_into(floats, slot, a, |x| x - lit(l)),
                Node::SubLitF(a, l) => map_into(floats, slot, a, |x| lit(l) - x),
                Node::MulFLit(a, l) => map_into(floats, slot, a, |x| x * lit(l)),
            }
        }
    }
}

/// The node constructors of one arithmetic operator: the int and float
/// two-register forms plus the fused literal forms (`fused` for
/// `reg ⊕ lit`, `fused_rev` for `lit ⊕ reg` — identical for the
/// commutative ops).
struct ArithOps {
    int_op: fn(usize, usize) -> Node,
    float_op: fn(usize, usize) -> Node,
    fused: fn(usize, u64) -> Node,
    fused_rev: fn(usize, u64) -> Node,
}

const ADD_OPS: ArithOps = ArithOps {
    int_op: Node::AddI,
    float_op: Node::AddF,
    fused: Node::AddFLit,
    fused_rev: Node::AddFLit,
};
const SUB_OPS: ArithOps = ArithOps {
    int_op: Node::SubI,
    float_op: Node::SubF,
    fused: Node::SubFLit,
    fused_rev: Node::SubLitF,
};
const MUL_OPS: ArithOps = ArithOps {
    int_op: Node::MulI,
    float_op: Node::MulF,
    fused: Node::MulFLit,
    fused_rev: Node::MulFLit,
};

/// A numeric literal operand's value coerced to `f64` — exactly the
/// coercion the tree-walk applies to mixed int/float operands.
fn num_literal(expr: &ScalarExpr) -> Option<f64> {
    match expr {
        ScalarExpr::IntLit(v) => Some(*v as f64),
        ScalarExpr::FloatLit(v) => Some(*v),
        _ => None,
    }
}

/// One output of a compiled expression list.
#[derive(Debug, Clone)]
enum Out {
    /// Pass a string column through untouched (projection only; the
    /// page bytes are already space-padded to the field width).
    StrCol(usize),
    /// Broadcast a string literal.
    StrLit(String),
    /// A register of the list's numeric program.
    Num(Reg),
}

/// A list of scalar expressions — a projection's outputs — compiled for
/// page-at-a-time evaluation: the numeric ones as one [`NumProgram`],
/// string columns and literals as pass-throughs.
#[derive(Debug, Clone)]
pub(crate) struct CompiledExprs {
    prog: NumProgram,
    outs: Vec<Out>,
}

impl CompiledExprs {
    /// Compiles `exprs` against the input `schema`, erring on type
    /// errors (e.g. arithmetic over strings) — the plans the
    /// tree-walking `eval` would panic on at runtime.
    pub(crate) fn compile(exprs: &[ScalarExpr], schema: &Arc<Schema>) -> Result<Self, ExecError> {
        let mut prog = NumProgram::default();
        let outs = exprs
            .iter()
            .map(|expr| match expr {
                ScalarExpr::Col(i)
                    if matches!(
                        schema.fields().get(*i).map(|f| f.dtype),
                        Some(DataType::Str(_))
                    ) =>
                {
                    Ok(Out::StrCol(*i))
                }
                ScalarExpr::StrLit(s) if !s.is_ascii() => Err(ExecError::plan(format!(
                    "string literal {s:?} is not ASCII (pages store ASCII only)"
                ))),
                ScalarExpr::StrLit(s) => Ok(Out::StrLit(s.clone())),
                other => prog.add(other, schema).map(Out::Num),
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { prog, outs })
    }

    /// Evaluates the list over all rows of `page` once and encodes
    /// output `i` as field `i` of `out_schema`, row-major, into `out`
    /// (resized to `rows * row_width`; the fields tile the row, so
    /// every byte is overwritten).
    ///
    /// # Panics
    ///
    /// Panics if an output's evaluated type does not match its field's
    /// type or a string does not fit its field width — the same plan
    /// bugs the tree-walking path panics on.
    pub(crate) fn encode_rows(
        &self,
        page: &Page,
        scratch: &mut ExprScratch,
        out_schema: &Schema,
        out: &mut Vec<u8>,
    ) {
        assert_eq!(self.outs.len(), out_schema.len(), "one output per field");
        let w = out_schema.row_width();
        out.resize(page.rows() * w, 0);
        self.prog.evaluate(page, scratch);
        for (i, field) in out_schema.fields().iter().enumerate() {
            self.encode_evaluated(i, page, scratch, field.dtype, out, out_schema.offset(i), w);
        }
    }

    /// Encodes output `i`, its register already evaluated over `page`:
    /// row `r`'s field bytes land at `out[r * stride + offset ..]`.
    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' contract of encode_rows"
    )]
    fn encode_evaluated(
        &self,
        i: usize,
        page: &Page,
        scratch: &ExprScratch,
        dtype: DataType,
        out: &mut [u8],
        offset: usize,
        stride: usize,
    ) {
        /// Writes each value's `N` little-endian bytes into its row.
        fn scatter<T: Copy, const N: usize>(
            vals: &[T],
            out: &mut [u8],
            offset: usize,
            stride: usize,
            bytes: impl Fn(T) -> [u8; N],
        ) {
            for (r, &x) in vals.iter().enumerate() {
                let dst = r * stride + offset;
                out[dst..dst + N].copy_from_slice(&bytes(x));
            }
        }
        match &self.outs[i] {
            Out::StrCol(c) => {
                let DataType::Str(width) = dtype else {
                    panic!("type mismatch: string column for {dtype:?} field");
                };
                let in_schema = page.schema();
                let in_off = in_schema.offset(*c);
                let DataType::Str(in_width) = in_schema.fields()[*c].dtype else {
                    panic!("StrCol over non-string input column");
                };
                assert_eq!(in_width, width, "string field width mismatch");
                for (r, raw) in page.raw_rows().enumerate() {
                    let dst = r * stride + offset;
                    out[dst..dst + width].copy_from_slice(&raw[in_off..in_off + width]);
                }
            }
            Out::StrLit(s) => {
                let DataType::Str(width) = dtype else {
                    panic!("type mismatch: string literal for {dtype:?} field");
                };
                assert!(
                    s.len() <= width && s.is_ascii(),
                    "string '{s}' does not fit ASCII field of width {width}"
                );
                let mut padded = vec![b' '; width];
                padded[..s.len()].copy_from_slice(s.as_bytes());
                for r in 0..page.rows() {
                    let dst = r * stride + offset;
                    out[dst..dst + width].copy_from_slice(&padded);
                }
            }
            &Out::Num(Reg { ty, slot }) => match (ty, dtype) {
                (NumType::Int, DataType::Int) => {
                    scatter(&scratch.ints[slot], out, offset, stride, i64::to_le_bytes)
                }
                (NumType::Float, DataType::Float) => {
                    scatter(&scratch.floats[slot], out, offset, stride, f64::to_le_bytes)
                }
                (NumType::Date, DataType::Date) => {
                    scatter(&scratch.dates[slot], out, offset, stride, i32::to_le_bytes)
                }
                (ty, dtype) => panic!("type mismatch: {ty:?} column for {dtype:?} field"),
            },
        }
    }
}

/// A scalar expression compiled for page-at-a-time evaluation: a
/// `CompiledExprs` list of one.
#[derive(Debug, Clone)]
pub struct CompiledExpr(CompiledExprs);

impl CompiledExpr {
    /// Compiles `expr` against the input `schema`, erring on type
    /// errors (e.g. arithmetic over strings) — the plans the
    /// tree-walking `eval` would panic on at runtime.
    pub fn compile(expr: &ScalarExpr, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        CompiledExprs::compile(std::slice::from_ref(expr), schema).map(Self)
    }

    /// Compiles a **numeric** `expr` with the result promoted to `f64`
    /// — the coercion every aggregate input goes through. String or
    /// date expressions err here, at plan time, so
    /// [`CompiledExpr::eval_f64_into`] cannot fail later.
    pub fn compile_f64(expr: &ScalarExpr, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        let mut prog = NumProgram::default();
        let outs = vec![Out::Num(prog.add_f64(expr, schema)?)];
        Ok(Self(CompiledExprs { prog, outs }))
    }

    /// Evaluates the expression coerced to `f64` over all rows of
    /// `page` into `out` (cleared first) — the shape every aggregate
    /// input takes.
    ///
    /// # Panics
    ///
    /// Panics if the expression is a string or date (not numeric).
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' contract of eval_f64_into"
    )]
    pub fn eval_f64_into(&self, page: &Page, scratch: &mut ExprScratch, out: &mut Vec<f64>) {
        let Out::Num(Reg { ty, slot }) = self.0.outs[0] else {
            panic!("string expression is not numeric");
        };
        self.0.prog.evaluate(page, scratch);
        out.clear();
        // Promotion is baked in at compile time for aggregate use via
        // `compile_f64`; handle plain programs here too.
        match ty {
            NumType::Float => out.extend_from_slice(&scratch.floats[slot]),
            NumType::Int => out.extend(scratch.ints[slot].iter().map(|&x| x as f64)),
            NumType::Date => panic!("date expression is not numeric"),
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
/// compile time (bytes compare as the tree walk's `str`s do). An empty
/// head or tail is `None` and never compared: it matches anything, and
/// comparing an empty `Vec`'s dangling pointer costs a slow `memcmp`.
#[derive(Debug, Clone)]
enum LikePattern {
    /// No `%`: the field equals the pattern.
    Exact(Vec<u8>),
    /// At least one `%`.
    Wild {
        /// The fragment before the first `%`: the field starts with it.
        head: Option<Vec<u8>>,
        /// The non-empty fragments between `%`s: found in order, no
        /// overlap.
        middle: Vec<Vec<u8>>,
        /// The fragment after the last `%`: the rest ends with it.
        tail: Option<Vec<u8>>,
    },
}

impl LikePattern {
    fn new(pattern: &str) -> Self {
        let fragment = |p: &str| (!p.is_empty()).then(|| p.as_bytes().to_vec());
        let mut parts = pattern.split('%');
        let head = parts.next().unwrap_or_default();
        let Some(tail) = parts.next_back() else {
            return Self::Exact(head.as_bytes().to_vec());
        };
        Self::Wild {
            head: fragment(head),
            middle: parts.filter_map(fragment).collect(),
            tail: fragment(tail),
        }
    }

    fn matches(&self, s: &[u8]) -> bool {
        let (head, middle, tail) = match self {
            Self::Exact(whole) => return s == whole.as_slice(),
            Self::Wild { head, middle, tail } => (head, middle, tail),
        };
        let Some(mut rest) = head.as_deref().map_or(Some(s), |h| s.strip_prefix(h)) else {
            return false;
        };
        for frag in middle {
            match find(rest, frag) {
                Some(at) => rest = &rest[at + frag.len()..],
                None => return false,
            }
        }
        tail.as_deref().is_none_or(|tail| rest.ends_with(tail))
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
    /// General numeric comparison: one program evaluates both sides
    /// densely into registers `l` and `r` (of one type), then
    /// `l[row] <op> r[row]` retains the selection.
    Cmp {
        prog: NumProgram,
        l: Reg,
        r: Reg,
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
            Refiner::Cmp { prog, l, r, op } => {
                prog.evaluate(page, scratch);
                let (a, b) = (l.slot, r.slot);
                debug_assert_eq!(l.ty, r.ty, "compile_cmp pairs registers of one type");
                match l.ty {
                    NumType::Int => retain_pairs(sel, *op, &scratch.ints[a], &scratch.ints[b]),
                    NumType::Float => {
                        retain_pairs(sel, *op, &scratch.floats[a], &scratch.floats[b])
                    }
                    NumType::Date => retain_pairs(sel, *op, &scratch.dates[a], &scratch.dates[b]),
                }
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
    let mut prog = NumProgram::default();
    Ok(match (tl, tr) {
        (DataType::Int, DataType::Int) | (DataType::Date, DataType::Date) => {
            let (l, r) = (prog.add(left, schema)?, prog.add(right, schema)?);
            Refiner::Cmp { prog, l, r, op }
        }
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
        (DataType::Int | DataType::Float, DataType::Int | DataType::Float) => {
            let (l, r) = (prog.add_f64(left, schema)?, prog.add_f64(right, schema)?);
            Refiner::Cmp { prog, l, r, op }
        }
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

    fn bin(
        op: fn(Box<ScalarExpr>, Box<ScalarExpr>) -> ScalarExpr,
        a: ScalarExpr,
        b: ScalarExpr,
    ) -> ScalarExpr {
        op(Box::new(a), Box::new(b))
    }

    /// `qty * (k + 3)` mixes float and int subtrees; `k * 7` is pure int.
    fn mixed_exprs() -> [ScalarExpr; 2] {
        use ScalarExpr::{Add, IntLit, Mul};
        [
            bin(
                Mul,
                ScalarExpr::col(1),
                bin(Add, ScalarExpr::col(0), IntLit(3)),
            ),
            bin(Mul, ScalarExpr::col(0), IntLit(7)),
        ]
    }

    /// `price * (1 - discount)`-shaped expressions exercise SubLitF and
    /// MulFLit; `k * 2 + 0.5` exercises MulFLit + AddFLit on a promoted
    /// int subtree; `qty - 3` an int literal against a float.
    fn fused_exprs() -> [ScalarExpr; 3] {
        use ScalarExpr::{Add, FloatLit, IntLit, Mul, Sub};
        [
            bin(
                Mul,
                ScalarExpr::col(1),
                bin(Sub, FloatLit(1.0), ScalarExpr::col(1)),
            ),
            bin(
                Add,
                bin(Mul, ScalarExpr::col(0), FloatLit(2.0)),
                FloatLit(0.5),
            ),
            bin(Sub, ScalarExpr::col(1), IntLit(3)),
        ]
    }

    #[test]
    fn eval_f64_matches_tree_walk() {
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut out = Vec::new();
        let [mixed, int] = mixed_exprs();
        let compiled = CompiledExpr::compile(&mixed, p.schema()).expect("compiles");
        compiled.eval_f64_into(&p, &mut scratch, &mut out);
        for (r, t) in p.tuples().enumerate() {
            assert_eq!(Some(out[r]), mixed.eval(&t).as_f64());
        }
        // Pure-int expressions keep the tree-walk's f64 round-trip.
        let compiled = CompiledExpr::compile(&int, p.schema()).expect("compiles");
        compiled.eval_f64_into(&p, &mut scratch, &mut out);
        for (r, t) in p.tuples().enumerate() {
            match int.eval(&t) {
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
        let mut bytes = Vec::new();
        CompiledExprs::compile(&exprs, p.schema())
            .expect("compiles")
            .encode_rows(&p, &mut scratch, &out_schema, &mut bytes);
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
        // The fused program must agree with the tree walk bit-for-bit
        // (same f64 ops on the same operands).
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut fused = Vec::new();
        for expr in &fused_exprs() {
            let f = CompiledExpr::compile(expr, p.schema()).expect("compiles");
            f.eval_f64_into(&p, &mut scratch, &mut fused);
            for (r, t) in p.tuples().enumerate() {
                let expected = expr.eval(&t).as_f64().expect("numeric");
                assert_eq!(fused[r].to_bits(), expected.to_bits(), "{expr:?} row {r}");
            }
        }
    }

    /// `(gathers, other nodes)` of a program.
    fn shape(prog: &NumProgram) -> (usize, usize) {
        let is_gather = |n: &Node| matches!(n, Node::ColI(_) | Node::ColF(_) | Node::ColD(_));
        let gathers = prog.nodes.iter().filter(|(n, _)| is_gather(n)).count();
        (gathers, prog.nodes.len() - gathers)
    }

    /// Adds every expression to one program, promoted to `f64`.
    fn list_of(exprs: &[ScalarExpr], schema: &Arc<Schema>) -> (NumProgram, Vec<Reg>) {
        let mut prog = NumProgram::default();
        let add = |e| prog.add_f64(e, schema).expect("compiles");
        let regs = exprs.iter().map(add).collect();
        (prog, regs)
    }

    #[test]
    fn q1_inputs_are_four_gathers_four_passes_and_five_outputs() {
        use ScalarExpr::{Add, FloatLit, Mul, Sub};
        let names = ["qty", "price", "disc", "tax"];
        let schema = Schema::new(names.map(|n| Field::new(n, DataType::Float)).to_vec());
        let [qty, price, disc, tax] = [0, 1, 2, 3].map(ScalarExpr::col);
        let disc_price = bin(Mul, price.clone(), bin(Sub, FloatLit(1.0), disc.clone()));
        let charge = bin(Mul, disc_price.clone(), bin(Add, FloatLit(1.0), tax));
        // sum_qty, sum_base_price, sum_disc_price, sum_charge, avg_qty,
        // avg_price, avg_disc.
        let inputs = [
            qty.clone(),
            price.clone(),
            disc_price,
            charge,
            qty,
            price,
            disc,
        ];
        let (prog, regs) = list_of(&inputs, &schema);
        assert_eq!(shape(&prog), (4, 4));
        assert_eq!((regs[0], regs[1]), (regs[4], regs[5]));
        let mut distinct = regs.clone();
        distinct.sort_by_key(|r| r.slot);
        distinct.dedup();
        assert_eq!(distinct.len(), 5);

        let mut b = PageBuilder::new(schema);
        for i in 0..40 {
            let x = i as f64;
            let row = [
                x + 1.0,
                900.5 + 17.25 * x,
                0.01 * (x % 11.0),
                0.02 * (x % 5.0),
            ];
            b.push_row(&row.map(Value::Float));
        }
        let (p, mut scratch) = (b.finish(), ExprScratch::default());
        prog.evaluate(&p, &mut scratch);
        for (expr, reg) in inputs.iter().zip(regs) {
            for (t, got) in p.tuples().zip(scratch.f64s(reg)) {
                let want = expr.eval(&t).as_f64().expect("numeric");
                assert_eq!(got.to_bits(), want.to_bits(), "{expr:?}");
            }
        }
    }

    #[test]
    fn a_list_equals_its_expressions_compiled_alone_on_0_1_and_64_rows() {
        let exprs: Vec<ScalarExpr> = mixed_exprs().into_iter().chain(fused_exprs()).collect();
        for n in [0, 1, 64] {
            let p = page_of(n);
            let (prog, regs) = list_of(&exprs, p.schema());
            let (mut scratch, mut alone) = (ExprScratch::default(), Vec::new());
            prog.evaluate(&p, &mut scratch);
            for (expr, reg) in exprs.iter().zip(regs) {
                let one = CompiledExpr::compile_f64(expr, p.schema()).expect("compiles");
                one.eval_f64_into(&p, &mut ExprScratch::default(), &mut alone);
                let bits = |col: &[f64]| col.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(scratch.f64s(reg)),
                    bits(&alone),
                    "{expr:?} on {n} rows"
                );
                let walked = p.tuples().map(|t| expr.eval(&t).as_f64().expect("numeric"));
                assert_eq!(bits(&alone), bits(&walked.collect::<Vec<_>>()));
            }
        }
    }

    #[test]
    fn nodes_merge_on_operation_operands_and_literal_bits_only() {
        use ScalarExpr::{Add, FloatLit, IntLit, Sub};
        let p = page();
        let x = || ScalarExpr::col(1);
        // `x + 1` and `1 + x` are one fused node; `x - 1` and `1 - x`
        // are two; all four gather `x` once.
        let commuted = [
            bin(Add, x(), IntLit(1)),
            bin(Add, IntLit(1), x()),
            bin(Sub, x(), IntLit(1)),
            bin(Sub, IntLit(1), x()),
        ];
        let (prog, regs) = list_of(&commuted, p.schema());
        assert_eq!(shape(&prog), (1, 3));
        assert_eq!(regs[0], regs[1]);
        assert_ne!(regs[2], regs[3]);
        // `0.0` and `-0.0` compare equal but are two literals, fused
        // (`x + 0.0` is not `x + -0.0` at `x = -0.0`) or broadcast.
        let zeros = [
            bin(Add, x(), FloatLit(0.0)),
            bin(Add, x(), FloatLit(-0.0)),
            FloatLit(0.0),
            FloatLit(-0.0),
            FloatLit(0.0),
        ];
        let (prog, regs) = list_of(&zeros, p.schema());
        assert_eq!(shape(&prog), (1, 4));
        assert_eq!(regs[2], regs[4]);
        assert_ne!(regs[2], regs[3]);
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
                scratch.ints.iter().map(Vec::capacity).collect::<Vec<_>>(),
                scratch.floats.iter().map(Vec::capacity).collect::<Vec<_>>(),
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
            assert_eq!(footprint(&scratch, &sel), first);
        }
    }

    #[test]
    fn a_list_allocates_nothing_after_its_first_page() {
        let p = page();
        let exprs: Vec<ScalarExpr> = mixed_exprs().into_iter().chain(fused_exprs()).collect();
        let (prog, _) = list_of(&exprs, p.schema());
        let mut scratch = ExprScratch::default();
        let footprint = |s: &ExprScratch| {
            let ints: Vec<_> = s.ints.iter().map(|b| (b.as_ptr(), b.capacity())).collect();
            let floats: Vec<_> = s
                .floats
                .iter()
                .map(|b| (b.as_ptr(), b.capacity()))
                .collect();
            (ints, floats, s.dates.len())
        };
        prog.evaluate(&p, &mut scratch);
        let first = footprint(&scratch);
        assert_eq!((first.0.len(), first.1.len(), first.2), (5, 10, 0));
        for _ in 0..2 {
            prog.evaluate(&p, &mut scratch);
            assert_eq!(footprint(&scratch), first);
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
    fn empty_literals_and_fragments_match_tree_walk() {
        // Empty and all-space fields both read as "" once trimmed.
        let schema = Schema::new(vec![Field::new("s", DataType::Str(4))]);
        let mut b = PageBuilder::new(schema);
        for s in ["", "    ", "a", " ", "ab", "  b", "abcd", "", " a  "] {
            b.push_row(&[Value::Str(s.into())]);
        }
        let p = b.finish();
        let like = |pattern: &str| Predicate::Like {
            col: 0,
            pattern: pattern.into(),
        };
        let empty_rows = [0, 1, 3, 7];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let pred = Predicate::col_cmp(0, op, "");
            let sel = assert_matches_tree_walk(&pred, &p);
            let want: Vec<u32> = match op {
                CmpOp::Eq | CmpOp::Le => empty_rows.to_vec(),
                CmpOp::Ne | CmpOp::Gt => vec![2, 4, 5, 6, 8],
                CmpOp::Lt => vec![],
                CmpOp::Ge => (0..9).collect(),
            };
            assert_eq!(sel, want, "{pred:?}");
            let mirrored = Predicate::cmp(ScalarExpr::StrLit("".into()), op, ScalarExpr::col(0));
            assert_matches_tree_walk(&mirrored, &p);
        }
        assert_eq!(assert_matches_tree_walk(&like(""), &p), empty_rows);
        assert_eq!(
            assert_matches_tree_walk(&Predicate::Not(Box::new(like(""))), &p),
            [2, 4, 5, 6, 8]
        );
        for pattern in ["%", "%%", "a%", "%b", "%a%", "a%%", "%%b", "% %", " %", "a"] {
            assert_matches_tree_walk(&like(pattern), &p);
            assert_matches_tree_walk(&Predicate::Not(Box::new(like(pattern))), &p);
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
