//! Hash aggregation (stop-&-go), vectorized.
//!
//! An aggregate's whole input list compiles once into one register
//! program ([`NumProgram`]): `Sum(e)`, `Avg(e)`, `Min(e)` and `Max(e)`
//! over one `e` read one register, and inputs that share columns or
//! sub-expressions share those too. Per-group state is **flat**: every
//! group has a slot, and the state is parallel columns indexed by slot —
//! one row count (what `Count` and every `Avg` read), one running sum
//! per distinct `Sum`/`Avg` input, one `Option<f64>` per distinct `Min`
//! or `Max` input. A page is folded in two passes, X100 style: first
//! one slot index per row, then one tight loop per state column over
//! `(slot index, input value)` — each (group, input) pair still
//! accumulates in row order, so float sums are what a row-at-a-time
//! walk produces.
//!
//! How a row finds its slot depends on the key: with no `GROUP BY`
//! every row is slot 0 and nothing is hashed; group columns totalling
//! ≤ 8 bytes (single Int, Q1's two 1-byte flags, Q13's count, a lone
//! Date) pack, one pass per key field, into a `u64` looked up in a
//! small direct-mapped memo in front of an [`FxHashMap`], with no
//! per-row allocation; wider keys go through an ordered map of decoded
//! keys. Partial aggregates [merge](AggCore::merge) by the same column
//! loops. Emission is always sorted by group key, matching the
//! reference executor.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::Agg;
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port, PortClosed};
use crate::ops::{key_of, Key};
use crate::vexpr::{ExprScratch, NumProgram, Reg};
use cordoba_core::FxHashMap;
use cordoba_storage::{NumCell, Page, PageBuilder, Schema};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Full pages per emit step (bounds step size during emission).
const EMIT_BATCH_PAGES: usize = 4;

/// The packed path's memo has `1 << MEMO_BITS` entries.
const MEMO_BITS: u32 = 6;
/// The slot of a memo entry nothing has been cached in yet.
const NO_SLOT: u32 = u32::MAX;

/// What one aggregate emits from a group's state: the row count, or
/// column `.0` of the sums, minima or maxima.
#[derive(Debug, Clone, Copy)]
enum AggOut {
    Count,
    Sum(usize),
    Avg(usize),
    Min(usize),
    Max(usize),
}

/// One state column: the running fold of one distinct input, by slot.
struct StateCol<T> {
    input: Reg,
    /// The first aggregate over this input (names it in assertions).
    agg: usize,
    vals: Vec<T>,
}

/// Per-group state as parallel columns indexed by slot: `Sum(e)` and
/// `Avg(e)` share a sum, `Count` and every `Avg` read `rows` (never 0:
/// a slot is appended for the row, or the merged group, that fills it).
#[derive(Default)]
struct GroupCols {
    rows: Vec<i64>,
    sums: Vec<StateCol<f64>>,
    mins: Vec<StateCol<Option<f64>>>,
    maxs: Vec<StateCol<Option<f64>>>,
}

impl GroupCols {
    /// Appends a group that has seen no rows; returns its slot.
    fn new_slot(&mut self) -> u32 {
        self.rows.push(0);
        self.sums.iter_mut().for_each(|c| c.vals.push(0.0));
        let extremes = self.mins.iter_mut().chain(&mut self.maxs);
        extremes.for_each(|c| c.vals.push(None));
        (self.rows.len() - 1) as u32
    }
}

/// The index in `cols` of the column over `input`, appended for
/// aggregate `agg` if it is the first to read that input.
fn state_col<T>(cols: &mut Vec<StateCol<T>>, input: Reg, agg: usize) -> usize {
    cols.iter()
        .position(|c| c.input == input)
        .unwrap_or_else(|| {
            let vals = Vec::new();
            cols.push(StateCol { input, agg, vals });
            cols.len() - 1
        })
}

/// `vals[idx[i]] += col[i]` in order of `i`: rows of a page into their
/// groups' sums, or another core's sums into the slots they merge into.
/// Each add waits for the one before it into the same slot (a store
/// forwarded to the next load), so with few groups a column's pass is
/// bound by that latency: a second column `and` rides in its shadow.
fn add_into(vals: &mut [f64], col: &[f64], and: Option<(&mut [f64], &[f64])>, idx: &[u32]) {
    match and {
        Some((vals2, col2)) => {
            for ((&slot, &v), &v2) in idx.iter().zip(col).zip(col2) {
                vals[slot as usize] += v;
                vals2[slot as usize] += v2;
            }
        }
        None => {
            for (&slot, &v) in idx.iter().zip(col) {
                vals[slot as usize] += v;
            }
        }
    }
}

/// As [`add_into`] for a `Min`/`Max` column, `pick` being `f64::min` or
/// `f64::max`; a `None` (a merged group without rows) changes nothing.
fn pick_into(
    vals: &mut [Option<f64>],
    idx: &[u32],
    col: impl Iterator<Item = Option<f64>>,
    pick: impl Fn(f64, f64) -> f64,
) {
    for (&slot, v) in idx.iter().zip(col) {
        if let Some(v) = v {
            let m = &mut vals[slot as usize];
            *m = Some(m.map_or(v, |cur| pick(cur, v)));
        }
    }
}

/// ORs bytes `[off, off + w)` of every row into its key, `shift` bits
/// up. Inlined into each arm of the caller's `match` on `w`, so the
/// common widths read with one fixed-width load.
#[inline(always)]
fn pack_field(keys: &mut [u64], page: &Page, off: usize, w: usize, shift: usize) {
    for (key, row) in keys.iter_mut().zip(page.raw_rows()) {
        let mut bytes = [0u8; 8];
        bytes[..w].copy_from_slice(&row[off..off + w]);
        *key |= u64::from_le_bytes(bytes) << shift;
    }
}

/// How a row's group key resolves to its slot.
enum GroupIndex {
    /// No `GROUP BY`: every row belongs to slot 0.
    Single,
    /// Group columns pack into ≤ 8 bytes: a `u64` key per row, slots in
    /// an integer-hashed map behind a direct-mapped memo of recently
    /// seen keys, zero per-row allocation.
    Packed {
        /// `(byte offset, width)` of each group column within a row.
        fields: Vec<(usize, usize)>,
        map: FxHashMap<u64, u32>,
        memo: Box<[(u64, u32); 1 << MEMO_BITS]>,
        /// The decoded ordered key of each slot, computed once per
        /// *group* for emission.
        keys: Vec<Key>,
    },
    /// Wide keys: ordered map keyed by the decoded tuple key.
    Wide(BTreeMap<Key, u32>),
}

/// The reusable aggregation core: the compiled input program plus group
/// state, independent of any task or channel plumbing. One core serves
/// the serial [`AggregateKernel`]; a morsel group gives each worker its
/// own core and its merge [merges](AggCore::merge) them in worker order
/// ([`Deposit`]), so partial aggregation reuses exactly the slot columns
/// and sorted emission of the serial path.
pub(crate) struct AggCore {
    group_by: Vec<usize>,
    /// Every distinct aggregate input, compiled as one list.
    inputs: NumProgram,
    /// What each aggregate reads at emission.
    outs: Vec<AggOut>,
    out_schema: Arc<Schema>,
    index: GroupIndex,
    cols: GroupCols,
    scratch: ExprScratch,
    /// Packed per-row keys for the packed path.
    packed: Vec<u64>,
    /// The slot of each row of the page in hand.
    slots: Vec<u32>,
    /// Groups not yet emitted, in key order.
    order: std::vec::IntoIter<(Key, u32)>,
    row_bytes: Vec<u8>,
}

impl AggCore {
    /// Compiles and validates an aggregation over `in_schema` rows.
    /// `out_schema` must be the plan-derived schema (group columns then
    /// aggregate columns). Errs on non-numeric aggregate inputs,
    /// out-of-range group columns, or an output schema of the wrong
    /// arity.
    pub(crate) fn new(
        in_schema: &Arc<Schema>,
        group_by: Vec<usize>,
        aggs: Vec<Agg>,
        out_schema: Arc<Schema>,
    ) -> Result<Self, ExecError> {
        if out_schema.len() != group_by.len() + aggs.len() {
            return Err(ExecError::plan(format!(
                "aggregate output schema has {} fields for {} groups + {} aggregates",
                out_schema.len(),
                group_by.len(),
                aggs.len()
            )));
        }
        for &c in &group_by {
            if c >= in_schema.len() {
                return Err(crate::plan::column_range_error("group-by", c, in_schema));
            }
        }
        let mut inputs = NumProgram::default();
        let mut cols = GroupCols::default();
        let mut outs = Vec::with_capacity(aggs.len());
        for (agg, a) in aggs.iter().enumerate() {
            // `add_f64` requires a numeric input, so a string or date
            // aggregate errs here instead of panicking on the first
            // evaluated page.
            let mut input = |e| inputs.add_f64(e, in_schema);
            outs.push(match a {
                Agg::Count => AggOut::Count,
                Agg::Sum(e) => AggOut::Sum(state_col(&mut cols.sums, input(e)?, agg)),
                Agg::Avg(e) => AggOut::Avg(state_col(&mut cols.sums, input(e)?, agg)),
                Agg::Min(e) => AggOut::Min(state_col(&mut cols.mins, input(e)?, agg)),
                Agg::Max(e) => AggOut::Max(state_col(&mut cols.maxs, input(e)?, agg)),
            });
        }
        let width = |c: usize| in_schema.fields()[c].dtype.width();
        let index = if group_by.is_empty() {
            GroupIndex::Single
        } else if group_by.iter().map(|&c| width(c)).sum::<usize>() <= 8 {
            GroupIndex::Packed {
                fields: group_by
                    .iter()
                    .map(|&c| (in_schema.offset(c), width(c)))
                    .collect(),
                map: FxHashMap::default(),
                memo: Box::new([(0, NO_SLOT); 1 << MEMO_BITS]),
                keys: Vec::new(),
            }
        } else {
            GroupIndex::Wide(BTreeMap::new())
        };
        Ok(Self {
            group_by,
            inputs,
            outs,
            out_schema,
            index,
            cols,
            scratch: ExprScratch::default(),
            packed: Vec::new(),
            slots: Vec::new(),
            order: Vec::new().into_iter(),
            row_bytes: Vec::new(),
        })
    }

    /// Folds one page into the group state.
    pub(crate) fn consume_page(&mut self, page: &Page) {
        let (n, cols) = (page.rows(), &mut self.cols);
        self.inputs.evaluate(page, &mut self.scratch);
        self.slots.clear();
        match &mut self.index {
            GroupIndex::Single => {
                if n > 0 && cols.rows.is_empty() {
                    cols.new_slot();
                }
                self.slots.resize(n, 0);
            }
            GroupIndex::Packed {
                fields,
                map,
                memo,
                keys,
            } => {
                // Pack each row's group-column bytes into a u64. Fixed
                // widths and offsets make packed equality coincide with
                // decoded-key equality (strings are space-padded, and
                // float bit equality is `total_cmp` equality).
                self.packed.clear();
                self.packed.resize(n, 0);
                let mut at = 0;
                // (A zero-width `Str(0)` field adds nothing, and after
                // eight key bytes its shift would be the whole word.)
                for &(off, w) in fields.iter().filter(|f| f.1 > 0) {
                    match w {
                        1 => pack_field(&mut self.packed, page, off, 1, at),
                        4 => pack_field(&mut self.packed, page, off, 4, at),
                        8 => pack_field(&mut self.packed, page, off, 8, at),
                        w => pack_field(&mut self.packed, page, off, w, at),
                    }
                    at += 8 * w;
                }
                for (r, &key) in self.packed.iter().enumerate() {
                    // Fibonacci hashing: the product's top bits.
                    let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS);
                    let cached = &mut memo[hash as usize];
                    if cached.0 != key || cached.1 == NO_SLOT {
                        let slot = *map.entry(key).or_insert_with(|| {
                            keys.push(key_of(&page.tuple(r), &self.group_by));
                            cols.new_slot()
                        });
                        *cached = (key, slot);
                    }
                    self.slots.push(cached.1);
                }
            }
            GroupIndex::Wide(map) => {
                for t in page.tuples() {
                    let slot = map.entry(key_of(&t, &self.group_by));
                    self.slots.push(*slot.or_insert_with(|| cols.new_slot()));
                }
            }
        }
        for &slot in &self.slots {
            cols.rows[slot as usize] += 1;
        }
        let column = |input, agg| {
            let col = self.scratch.f64s(input);
            assert_eq!(col.len(), n, "input column of aggregate {agg} vs page rows");
            col
        };
        let mut sums = cols.sums.iter_mut();
        while let Some(a) = sums.next() {
            let (col_a, b) = (column(a.input, a.agg), sums.next());
            let b = b.map(|b| (&mut b.vals[..], column(b.input, b.agg)));
            add_into(&mut a.vals, col_a, b, &self.slots);
        }
        for c in &mut cols.mins {
            let col = column(c.input, c.agg).iter().map(|&v| Some(v));
            pick_into(&mut c.vals, &self.slots, col, f64::min);
        }
        for c in &mut cols.maxs {
            let col = column(c.input, c.agg).iter().map(|&v| Some(v));
            pick_into(&mut c.vals, &self.slots, col, f64::max);
        }
    }

    /// Folds another core's partial groups into this one. Both cores
    /// must come from the same `AggCore::new` arguments (same group
    /// columns and aggregate list), which the parallel executor
    /// guarantees by construction. `Sum`/`Avg` float totals depend on
    /// the merge order, so workers are always merged in index order.
    fn merge(&mut self, other: AggCore) {
        let cols = &mut self.cols;
        // The slot here of each of `other`'s slots.
        let mut into = vec![0; other.cols.rows.len()];
        match (&mut self.index, other.index) {
            (GroupIndex::Single, GroupIndex::Single) => {
                if !into.is_empty() && cols.rows.is_empty() {
                    cols.new_slot();
                }
            }
            (
                GroupIndex::Packed { map, keys, .. },
                GroupIndex::Packed {
                    map: omap,
                    keys: mut okeys,
                    ..
                },
            ) => {
                for (key, oslot) in omap {
                    into[oslot as usize] = *map.entry(key).or_insert_with(|| {
                        keys.push(std::mem::take(&mut okeys[oslot as usize]));
                        cols.new_slot()
                    });
                }
            }
            (GroupIndex::Wide(map), GroupIndex::Wide(omap)) => {
                for (key, oslot) in omap {
                    into[oslot as usize] = *map.entry(key).or_insert_with(|| cols.new_slot());
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "both states were constructed from the same aggregate config"
            )]
            _ => unreachable!("identical aggregate configs share one GroupIndex variant"),
        }
        for (&slot, n) in into.iter().zip(&other.cols.rows) {
            cols.rows[slot as usize] += n;
        }
        for (c, o) in cols.sums.iter_mut().zip(&other.cols.sums) {
            add_into(&mut c.vals, &o.vals, None, &into);
        }
        for (c, o) in cols.mins.iter_mut().zip(&other.cols.mins) {
            pick_into(&mut c.vals, &into, o.vals.iter().copied(), f64::min);
        }
        for (c, o) in cols.maxs.iter_mut().zip(&other.cols.maxs) {
            pick_into(&mut c.vals, &into, o.vals.iter().copied(), f64::max);
        }
    }

    /// Ends consumption: queues every group for emission, sorted by key.
    fn start_emit(&mut self) {
        let mut order: Vec<(Key, u32)> = match &mut self.index {
            GroupIndex::Single => (0..self.cols.rows.len() as u32)
                .map(|slot| (Key::default(), slot))
                .collect(),
            GroupIndex::Packed { keys, .. } => std::mem::take(keys).into_iter().zip(0..).collect(),
            GroupIndex::Wide(map) => std::mem::take(map).into_iter().collect(),
        };
        order.sort_by(|a, b| a.0.cmp(&b.0));
        self.order = order.into_iter();
    }

    /// Emits queued groups (key columns then aggregate outputs, as raw
    /// rows of the output schema) until [`EMIT_BATCH_PAGES`] pages have
    /// filled, closing the page in hand too; returns whether it ran out
    /// of groups. Errs if a group key does not fit its output field.
    fn emit_step(&mut self, mut emit: impl FnMut(Arc<Page>)) -> Result<bool, ExecError> {
        let mut builder = PageBuilder::new(self.out_schema.clone());
        let mut pages = 0;
        let exhausted = loop {
            let Some((key, slot)) = self.order.next() else {
                break true;
            };
            let (row, slot) = (&mut self.row_bytes, slot as usize);
            row.clear();
            for (k, field) in key.0.iter().zip(self.out_schema.fields()) {
                k.encode(field.dtype, row).map_err(ExecError::plan)?;
            }
            let rows = self.cols.rows[slot];
            for out in &self.outs {
                let v = match *out {
                    AggOut::Count => {
                        row.extend_from_slice(&rows.to_cell());
                        continue;
                    }
                    AggOut::Sum(i) => self.cols.sums[i].vals[slot],
                    AggOut::Avg(i) => self.cols.sums[i].vals[slot] / rows as f64,
                    AggOut::Min(i) => self.cols.mins[i].vals[slot].unwrap_or_default(),
                    AggOut::Max(i) => self.cols.maxs[i].vals[slot].unwrap_or_default(),
                };
                row.extend_from_slice(&v.to_cell());
            }
            if !builder.push_raw(row) {
                emit(builder.finish_and_reset());
                pages += 1;
                assert!(builder.push_raw(row));
            }
            if pages >= EMIT_BATCH_PAGES {
                break false;
            }
        };
        if !builder.is_empty() {
            emit(builder.finish_and_reset());
        }
        Ok(exhausted)
    }
}

/// Where the workers of a morsel group's aggregate leave their folded
/// cores for the group's merge: one slot per worker.
#[derive(Clone)]
pub(crate) struct Deposit(Arc<[Mutex<Option<AggCore>>]>);

impl Deposit {
    /// Empty slots for `workers` workers.
    pub(crate) fn new(workers: usize) -> Self {
        Deposit((0..workers).map(|_| Mutex::new(None)).collect())
    }

    /// Leaves `worker`'s core.
    pub(crate) fn put(&self, worker: usize, core: AggCore) {
        *self.0[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(core);
    }

    /// The cores left so far, merged in worker order (float sums depend
    /// on the order); `None` when none was.
    fn merged(&self) -> Option<AggCore> {
        let mut cores = self.0.iter().filter_map(|slot| {
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            slot.take()
        });
        let mut core = cores.next()?;
        cores.for_each(|other| core.merge(other));
        Some(core)
    }
}

/// Hash-aggregate kernel: an `AggCore` plus its cost. What is left
/// of the operator here is that fold and the sorted emission, a batch
/// of pages per call; [`super::OperatorShell`] runs it as a task.
pub struct AggregateKernel {
    in_schema: Arc<Schema>,
    core: AggCore,
    cost: OpCost,
    /// Every group has been emitted.
    emitted: bool,
    /// A morsel group's merge: where its workers' cores are.
    deposit: Option<Deposit>,
}

impl AggregateKernel {
    /// Creates an aggregation over pages of `in_schema`. `out_schema`
    /// must be the plan-derived schema (group columns then aggregate
    /// columns); aggregate inputs are compiled here, once. Errs on
    /// non-numeric aggregate inputs, out-of-range group columns, or an
    /// output schema of the wrong arity.
    pub fn new(
        in_schema: Arc<Schema>,
        group_by: Vec<usize>,
        aggs: Vec<Agg>,
        out_schema: Arc<Schema>,
        cost: OpCost,
    ) -> Result<Self, ExecError> {
        Ok(Self {
            core: AggCore::new(&in_schema, group_by, aggs, out_schema)?,
            in_schema,
            cost,
            emitted: false,
            deposit: None,
        })
    }

    /// The merge of a morsel group's aggregate: its port carries no
    /// rows, and when it closes — every worker has ended — the cores the
    /// workers left in `deposit` are merged and emitted.
    pub(crate) fn merging(self, deposit: Deposit) -> Self {
        let deposit = Some(deposit);
        Self { deposit, ..self }
    }
}

impl Kernel for AggregateKernel {
    fn name(&self) -> &'static str {
        "aggregate"
    }

    fn ports(&self) -> Vec<Port> {
        vec![("", Some(self.in_schema.clone()))]
    }

    fn on_page(
        &mut self,
        _: usize,
        page: &Arc<Page>,
        _: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        self.core.consume_page(page);
        Ok(PageWork {
            cost: self.cost.input_cost(page.rows()),
            progress: page.rows(),
        })
    }

    fn on_close(&mut self, _: usize, _: &mut Pages) -> Result<PortClosed, ExecError> {
        if let Some(core) = self.deposit.as_ref().and_then(Deposit::merged) {
            self.core = core;
        }
        self.core.start_emit();
        Ok(PortClosed::default())
    }

    /// One batch of groups per call. Per-consumer delivery cost (`s`)
    /// is the fan-out's to charge; the unit here keeps emission steps
    /// advancing virtual time. The closing call emits nothing.
    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        if self.emitted {
            return Ok(Drained::LAST);
        }
        self.emitted = self.core.emit_step(|page| out.push(page))?;
        Ok(Drained::batch(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use crate::ops::testutil::{drive, pages_of};
    use cordoba_storage::{DataType, Field, Value};

    fn run_agg(
        rows: Vec<Vec<Value>>,
        in_schema: Arc<Schema>,
        group_by: Vec<usize>,
        aggs: Vec<Agg>,
        out_schema: Arc<Schema>,
    ) -> Vec<Vec<Value>> {
        let pages = pages_of(&in_schema, &rows);
        let cost = OpCost::default();
        let mut agg = AggregateKernel::new(in_schema, group_by, aggs, out_schema, cost)
            .expect("aggregate inputs compile");
        drive(&mut agg, &[&pages]).expect("never fails")
    }

    #[test]
    fn grouped_count_and_sum() {
        let in_schema = Schema::new(vec![
            Field::new("tag", DataType::Str(2)),
            Field::new("v", DataType::Float),
        ]);
        let out_schema = Schema::new(vec![
            Field::new("tag", DataType::Str(2)),
            Field::new("n", DataType::Int),
            Field::new("sum", DataType::Float),
        ]);
        let rows = vec![
            vec![Value::Str("b".into()), Value::Float(1.0)],
            vec![Value::Str("a".into()), Value::Float(2.0)],
            vec![Value::Str("b".into()), Value::Float(3.0)],
            vec![Value::Str("a".into()), Value::Float(4.0)],
            vec![Value::Str("b".into()), Value::Float(5.0)],
        ];
        let got = run_agg(
            rows,
            in_schema,
            vec![0],
            vec![Agg::Count, Agg::Sum(ScalarExpr::col(1))],
            out_schema,
        );
        assert_eq!(
            got,
            vec![
                vec![Value::Str("a".into()), Value::Int(2), Value::Float(6.0)],
                vec![Value::Str("b".into()), Value::Int(3), Value::Float(9.0)],
            ]
        );
    }

    #[test]
    fn scalar_aggregate_no_groups() {
        let in_schema = Schema::new(vec![Field::new("v", DataType::Float)]);
        let out_schema = Schema::new(vec![
            Field::new("sum", DataType::Float),
            Field::new("avg", DataType::Float),
            Field::new("min", DataType::Float),
            Field::new("max", DataType::Float),
        ]);
        let rows: Vec<Vec<Value>> = (1..=10).map(|i| vec![Value::Float(i as f64)]).collect();
        let got = run_agg(
            rows,
            in_schema,
            vec![],
            vec![
                Agg::Sum(ScalarExpr::col(0)),
                Agg::Avg(ScalarExpr::col(0)),
                Agg::Min(ScalarExpr::col(0)),
                Agg::Max(ScalarExpr::col(0)),
            ],
            out_schema,
        );
        assert_eq!(
            got,
            vec![vec![
                Value::Float(55.0),
                Value::Float(5.5),
                Value::Float(1.0),
                Value::Float(10.0)
            ]]
        );
    }

    #[test]
    fn empty_input_scalar_aggregate_emits_identity_row() {
        // SQL semantics vary; ours (and the reference executor's):
        // grouping over empty input yields no rows — including the
        // no-group case, where the map simply has no entries.
        let in_schema = Schema::new(vec![Field::new("v", DataType::Float)]);
        let out_schema = Schema::new(vec![Field::new("sum", DataType::Float)]);
        let got = run_agg(
            vec![],
            in_schema,
            vec![],
            vec![Agg::Sum(ScalarExpr::col(0))],
            out_schema,
        );
        assert!(got.is_empty());
    }

    #[test]
    fn many_groups_span_multiple_pages() {
        let in_schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let out_schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("n", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..2000).map(|i| vec![Value::Int(i % 1000)]).collect();
        let got = run_agg(rows, in_schema, vec![0], vec![Agg::Count], out_schema);
        assert_eq!(got.len(), 1000);
        // Sorted by key, every count is 2.
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64));
            assert_eq!(row[1], Value::Int(2));
        }
    }

    #[test]
    fn int_group_keys_from_counts() {
        // Q13-style: group by an Int column computed upstream.
        let in_schema = Schema::new(vec![Field::new("c_count", DataType::Int)]);
        let out_schema = Schema::new(vec![
            Field::new("c_count", DataType::Int),
            Field::new("custdist", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Int(0)],
            vec![Value::Int(0)],
            vec![Value::Int(3)],
            vec![Value::Int(3)],
            vec![Value::Int(3)],
            vec![Value::Int(7)],
        ];
        let got = run_agg(rows, in_schema, vec![0], vec![Agg::Count], out_schema);
        assert_eq!(
            got,
            vec![
                vec![Value::Int(0), Value::Int(2)],
                vec![Value::Int(3), Value::Int(3)],
                vec![Value::Int(7), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn negative_int_keys_sort_correctly_through_packed_path() {
        // Packed u64 hashing must not disturb sorted signed emission.
        let in_schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let out_schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("n", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Int(5)],
            vec![Value::Int(-3)],
            vec![Value::Int(0)],
            vec![Value::Int(-3)],
        ];
        let got = run_agg(rows, in_schema, vec![0], vec![Agg::Count], out_schema);
        assert_eq!(
            got,
            vec![
                vec![Value::Int(-3), Value::Int(2)],
                vec![Value::Int(0), Value::Int(1)],
                vec![Value::Int(5), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn wide_keys_take_general_path() {
        // Two Int group columns (16 bytes) exceed the packed width.
        let in_schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let out_schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("s", DataType::Float),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::Int(2), Value::Float(10.0)],
            vec![Value::Int(1), Value::Int(1), Value::Float(20.0)],
            vec![Value::Int(1), Value::Int(2), Value::Float(30.0)],
            vec![Value::Int(0), Value::Int(9), Value::Float(40.0)],
        ];
        let got = run_agg(
            rows,
            in_schema,
            vec![0, 1],
            vec![Agg::Sum(ScalarExpr::col(2))],
            out_schema,
        );
        assert_eq!(
            got,
            vec![
                vec![Value::Int(0), Value::Int(9), Value::Float(40.0)],
                vec![Value::Int(1), Value::Int(1), Value::Float(20.0)],
                vec![Value::Int(1), Value::Int(2), Value::Float(40.0)],
            ]
        );
    }

    /// An [`AggCore`] over `(k: Int, k2: Int, v: Float)` rows computing
    /// `Count, Sum(v), Avg(v), Min(v), Max(v)` per `group_by` key.
    fn core(group_by: &[usize]) -> AggCore {
        let field = |name: &str, dtype| Field::new(name, dtype);
        let mut out: Vec<Field> = ["k", "k2"][..group_by.len()]
            .iter()
            .map(|name| field(name, DataType::Int))
            .collect();
        out.push(field("n", DataType::Int));
        out.extend(["sum", "avg", "min", "max"].map(|name| field(name, DataType::Float)));
        let v = || ScalarExpr::col(2);
        let aggs = vec![
            Agg::Count,
            Agg::Sum(v()),
            Agg::Avg(v()),
            Agg::Min(v()),
            Agg::Max(v()),
        ];
        AggCore::new(&in_schema(), group_by.to_vec(), aggs, Schema::new(out)).expect("compiles")
    }

    fn in_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("k2", DataType::Int),
            Field::new("v", DataType::Float),
        ])
    }

    /// A page of `(k, k, v)` rows for [`core`].
    fn page_of(rows: &[(i64, f64)]) -> Arc<Page> {
        let mut b = PageBuilder::new(in_schema());
        for &(k, v) in rows {
            assert!(b.push_row(&[Value::Int(k), Value::Int(k), Value::Float(v)]));
        }
        b.finish()
    }

    fn emitted(mut core: AggCore) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        core.start_emit();
        while !core
            .emit_step(|page| rows.extend(page.tuples().map(|t| t.to_values())))
            .expect("keys fit")
        {}
        rows
    }

    /// What [`core`] computes, one row at a time over an ordered map.
    fn expected(key_cols: usize, rows: &[(i64, f64)]) -> Vec<Vec<Value>> {
        let mut groups: BTreeMap<Vec<i64>, (i64, f64, f64, f64)> = BTreeMap::new();
        for &(k, v) in rows {
            let g = groups.entry(vec![k; key_cols]).or_insert((0, 0.0, v, v));
            *g = (g.0 + 1, g.1 + v, g.2.min(v), g.3.max(v));
        }
        let row = |(key, (n, sum, min, max)): (Vec<i64>, (i64, f64, f64, f64))| {
            let mut row: Vec<Value> = key.into_iter().map(Value::Int).collect();
            row.push(Value::Int(n));
            row.extend([sum, sum / n as f64, min, max].map(Value::Float));
            row
        };
        groups.into_iter().map(row).collect()
    }

    /// No key, a packed 8-byte key, a wide 16-byte key.
    const KEY_SHAPES: [&[usize]; 3] = [&[], &[0], &[0, 1]];

    #[test]
    fn empty_input_emits_nothing_on_every_key_path() {
        for group_by in KEY_SHAPES {
            assert!(emitted(core(group_by)).is_empty(), "{group_by:?}");
            let mut fed_nothing = core(group_by);
            fed_nothing.consume_page(&page_of(&[]));
            assert!(emitted(fed_nothing).is_empty(), "{group_by:?}");
        }
    }

    #[test]
    fn zero_row_page_mid_stream_changes_nothing() {
        let rows = [(3, 1.5), (1, -2.0), (3, 0.25)];
        for group_by in KEY_SHAPES {
            let mut c = core(group_by);
            c.consume_page(&page_of(&rows[..2]));
            c.consume_page(&page_of(&[]));
            c.consume_page(&page_of(&rows[2..]));
            assert_eq!(emitted(c), expected(group_by.len(), &rows), "{group_by:?}");
        }
    }

    #[test]
    fn merge_into_a_core_that_has_seen_no_rows() {
        let rows = [(2, 0.1), (7, 0.2), (2, 0.3), (-1, 4.0)];
        for group_by in KEY_SHAPES {
            let (mut fresh, mut fed) = (core(group_by), core(group_by));
            fed.consume_page(&page_of(&rows));
            fresh.merge(fed);
            // ... and a partial without rows folds in as nothing.
            fresh.merge(core(group_by));
            assert_eq!(
                emitted(fresh),
                expected(group_by.len(), &rows),
                "{group_by:?}"
            );
        }
    }

    #[test]
    fn more_groups_than_the_memo_holds() {
        // 1000 keys, each seen three times a thousand rows apart: every
        // memo entry is evicted many times between two visits of a key.
        let groups = 1000;
        assert!(groups > 8 << MEMO_BITS);
        let rows: Vec<(i64, f64)> = (0..3 * groups)
            .map(|i| (i % groups - 500, i as f64 * 0.125))
            .collect();
        let mut c = core(&[0]);
        for chunk in rows.chunks(64) {
            c.consume_page(&page_of(chunk));
        }
        assert_eq!(emitted(c), expected(1, &rows));
    }

    #[test]
    fn one_group_repeated_for_a_whole_page_sums_in_row_order() {
        // Values whose float sum depends on the order they are added in.
        let rows: Vec<(i64, f64)> = (0..64).map(|i| (7, 0.1 * (i * i) as f64 + 1e9)).collect();
        for group_by in KEY_SHAPES {
            let mut c = core(group_by);
            c.consume_page(&page_of(&rows));
            let got = emitted(c);
            assert_eq!(got, expected(group_by.len(), &rows), "{group_by:?}");
            assert_eq!(got.len(), 1);
        }
    }

    #[test]
    fn aggregates_over_one_input_share_its_state_column() {
        let c = core(&[0]);
        let cols = (c.cols.sums.len(), c.cols.mins.len(), c.cols.maxs.len());
        assert_eq!(cols, (1, 1, 1), "Sum(v) and Avg(v) read one sum");
    }
}
