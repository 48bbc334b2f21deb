//! Full sort (stop-&-go): materializes its input, sorts, then streams
//! the result — the canonical blocking operator of the paper's
//! Section 5.2 phase decomposition.
//!
//! Key extraction is vectorized: buffered pages are kept whole and key
//! columns are gathered page-at-a-time. Keys totalling ≤ 8 bytes take
//! the packed-`u64` fast path ([`PackedKeySpec`], order-preserving —
//! the sort compares machine words); wider keys fall back to per-row
//! [`KeyVal`] tuples. Either way the sort orders a `(page, row)`
//! permutation and emission copies raw rows straight out of the
//! buffered pages — no per-row boxed copies on intake.
//!
//! # Out-of-core operation
//!
//! The buffered input is charged to the query's
//! [`MemoryBroker`](crate::MemoryBroker). When a grant is refused the
//! task **spills**: it sorts the buffered batch, writes it to a
//! [`SpillFile`] as a sorted run, and releases the memory. After input
//! ends the runs are k-way merged — cascaded first if there are more
//! runs than the budget allows open cursors — reusing the same packed
//! keys for the merge comparisons. Runs are chronological and the
//! merge breaks key ties toward the earliest run, so spilled output is
//! *identical*, row for row, to the in-memory stable sort. With an
//! unbounded broker (the default) no spilling occurs and behaviour is
//! unchanged.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::memory::{MemoryBroker, SpillContext};
use crate::ops::shell::{Kernel, PageWork, Pages, Port, PortClosed};
use crate::ops::sort_key::{KeyScratch, PackedKeySpec};
use crate::ops::{key_of, KeyVal};
use cordoba_sim::VTime;
use cordoba_storage::spill::{SpillFile, SpillReader};
use cordoba_storage::{Page, PageBuilder, Schema, PAGE_SIZE};
use std::sync::Arc;

/// The operator's name in faults.
const OP: &str = "sort";

/// Bytes emitted per `drain` call during the output phase (≈4 pages).
const EMIT_BYTES: usize = 16 * 1024;

/// Cursor fan-in cap for one merge pass.
const MAX_MERGE_FANOUT: usize = 64;

/// Per-row sort keys, packed when they fit a machine word.
enum Keys {
    Packed {
        spec: PackedKeySpec,
        scratch: KeyScratch,
        keys: Vec<u64>,
    },
    General(Vec<Vec<KeyVal>>),
}

/// Where `drain` takes the sorted rows from.
enum Emit {
    /// Nothing: the input has not ended, or every row has left.
    Nothing,
    /// The buffered pages, in `order` from position `next`.
    Buffered { order: Vec<u32>, next: usize },
    /// The spilled runs.
    Runs(KWayMerge),
}

/// Sort kernel (ascending by the given key columns, major first): the
/// buffered pages and their keys, the spilled runs, and the emission
/// cursor. [`crate::ops::shell`] runs it as a task.
pub struct SortKernel {
    key_cols: Vec<usize>,
    cost: OpCost,
    schema: Arc<Schema>,
    /// Buffered input pages (rows are emitted from here by reference).
    pages: Vec<Arc<Page>>,
    /// `(page, row)` of each buffered row, aligned with the keys.
    locs: Vec<(u32, u32)>,
    keys: Keys,
    emit: Emit,
    emit_batch_rows: usize,
    spill: SpillContext,
    /// Bytes currently granted for the buffered pages.
    granted: usize,
    /// Sorted runs spilled so far, in arrival (chronological) order.
    runs: Vec<SpillFile>,
}

impl SortKernel {
    /// Creates a sort over pages of `schema`, erring when a key column
    /// is out of range. `spill` supplies the query's memory account and
    /// spill directory; [`SpillContext::unbounded`] reproduces the fully
    /// in-memory behaviour.
    pub fn new(
        schema: Arc<Schema>,
        keys: Vec<usize>,
        cost: OpCost,
        spill: SpillContext,
    ) -> Result<Self, ExecError> {
        for &k in &keys {
            if k >= schema.len() {
                return Err(crate::plan::column_range_error("sort key", k, &schema));
            }
        }
        let keys_state = match PackedKeySpec::try_new(&schema, &keys) {
            Some(spec) => Keys::Packed {
                spec,
                scratch: KeyScratch::default(),
                keys: Vec::new(),
            },
            None => Keys::General(Vec::new()),
        };
        Ok(Self {
            key_cols: keys,
            cost,
            emit_batch_rows: (EMIT_BYTES / schema.row_width()).max(1),
            schema,
            pages: Vec::new(),
            locs: Vec::new(),
            keys: keys_state,
            emit: Emit::Nothing,
            spill,
            granted: 0,
            runs: Vec::new(),
        })
    }

    /// Computes the sorted row permutation (stable: equal keys keep
    /// arrival order, matching the reference executor).
    fn sorted_order(&mut self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.locs.len() as u32).collect();
        match &self.keys {
            Keys::Packed { keys, .. } => order.sort_by_key(|&r| keys[r as usize]),
            Keys::General(keys) => {
                order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
            }
        }
        // The keys are no longer needed; free them before emission.
        match &mut self.keys {
            Keys::Packed { keys, .. } => {
                keys.clear();
                keys.shrink_to_fit();
            }
            Keys::General(keys) => {
                keys.clear();
                keys.shrink_to_fit();
            }
        }
        order
    }

    /// Drops the buffered pages and returns their grant.
    fn free_buffered(&mut self) {
        self.pages.clear();
        self.locs.clear();
        self.spill.broker.release(self.granted);
        self.granted = 0;
    }

    /// Sorts the buffered batch, writes it out as one run, and frees
    /// its memory. Returns the number of rows spilled.
    fn spill_run(&mut self) -> Result<usize, ExecError> {
        if self.locs.is_empty() {
            return Ok(0);
        }
        let order = self.sorted_order();
        let io = self.spill.io(OP);
        let mut run = io.create(self.schema.clone())?;
        for &idx in &order {
            let (p, r) = self.locs[idx as usize];
            io.push(&mut run, self.pages[p as usize].tuple(r as usize).raw())?;
        }
        self.runs.push(io.finish(run)?);
        self.free_buffered();
        Ok(order.len())
    }

    /// How many run cursors the budget allows open at once during a
    /// merge (each holds one page; two pages are reserved for the
    /// output builder and slack).
    fn merge_fanout(&self) -> usize {
        match self.spill.broker.budget() {
            Some(b) => ((b / PAGE_SIZE).saturating_sub(2)).clamp(2, MAX_MERGE_FANOUT),
            None => MAX_MERGE_FANOUT,
        }
    }

    /// Merges the first `k` runs into one, reinserted at the front so
    /// the run list stays chronological (ties still resolve toward the
    /// earliest-arrived row).
    fn merge_front_runs(&mut self, k: usize) -> Result<usize, ExecError> {
        let rest = self.runs.split_off(k);
        let front = std::mem::replace(&mut self.runs, rest);
        let mut merge = KWayMerge::open(front, &mut self.keys, &self.key_cols, &self.spill)?;
        let io = self.spill.io(OP);
        let mut merged = io.create(self.schema.clone())?;
        let mut rows = 0usize;
        while let Some((i, raw)) = merge.min_row(&self.keys) {
            io.push(&mut merged, raw)?;
            rows += 1;
            merge.advance(i, &mut self.keys, &self.key_cols, &self.spill)?;
        }
        self.runs.insert(0, io.finish(merged)?);
        Ok(rows)
    }

    /// Transition from consuming to the streaming merge: spill the
    /// final batch, cascade-merge until the run count fits the budget's
    /// cursor fan-in, then open the final merge.
    fn begin_merge(&mut self) -> Result<(VTime, KWayMerge), ExecError> {
        let spilled = self.spill_run()?;
        let mut cost = self.cost.input_cost(spilled);
        let fanout = self.merge_fanout();
        while self.runs.len() > fanout {
            let merged = self.merge_front_runs(fanout)?;
            cost += self.cost.input_cost(merged);
        }
        let runs = std::mem::take(&mut self.runs);
        let merge = KWayMerge::open(runs, &mut self.keys, &self.key_cols, &self.spill)?;
        Ok((cost, merge))
    }
}

/// Appends `raw` to the page being built, moving a full page to `out`.
fn emit_row(builder: &mut PageBuilder, out: &mut Pages, raw: &[u8]) {
    if !builder.push_raw(raw) {
        out.push(builder.finish_and_reset());
        assert!(builder.push_raw(raw));
    }
}

impl Kernel for SortKernel {
    fn name(&self) -> &'static str {
        OP
    }

    fn ports(&self) -> Vec<Port> {
        vec![("", self.schema.clone())]
    }

    /// Buffers one page: record row locations and extract its keys.
    fn on_page(
        &mut self,
        _: usize,
        page: &Arc<Page>,
        _: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        let mut cost = self.cost.input_cost(page.rows());
        let bytes = page.byte_len();
        if !self.spill.broker.try_grant(bytes) {
            // Over budget: spill the buffered batch as a sorted run,
            // then retry (forcing if a single page alone exceeds the
            // budget).
            let spilled = self.spill_run()?;
            cost += self.cost.input_cost(spilled);
            if !self.spill.broker.try_grant(bytes) {
                self.spill.broker.grant(bytes);
            }
        }
        self.granted += bytes;
        let page_idx = self.pages.len() as u32;
        self.locs
            .extend((0..page.rows()).map(|r| (page_idx, r as u32)));
        match &mut self.keys {
            Keys::Packed {
                spec,
                scratch,
                keys,
            } => spec.extend_keys(page, scratch, keys),
            Keys::General(keys) => {
                keys.extend(page.tuples().map(|t| key_of(&t, &self.key_cols)));
            }
        }
        self.pages.push(page.clone());
        Ok(PageWork {
            cost,
            progress: page.rows(),
        })
    }

    /// The sort itself, or — with runs on disk — the cascade down to
    /// one final merge. A blocking step: it costs at least a tick.
    fn on_close(&mut self, _: usize, _: &mut Pages) -> Result<PortClosed, ExecError> {
        let cost = if self.runs.is_empty() {
            // Fully in-memory: the actual sort. Charged linearly per
            // tuple to keep the model's per-unit-progress cost
            // structure; the log factor is ~constant across the paper's
            // scales.
            let order = self.sorted_order();
            let cost = self.cost.input_cost(order.len());
            self.emit = Emit::Buffered { order, next: 0 };
            cost
        } else {
            let (cost, merge) = self.begin_merge()?;
            self.emit = Emit::Runs(merge);
            cost
        };
        Ok(PortClosed { cost, min_tick: 1 })
    }

    /// Up to a batch of rows per call, always at least a tick so
    /// emission advances virtual time. The closing call emits nothing.
    fn drain(&mut self, out: &mut Pages) -> Result<(VTime, bool), ExecError> {
        let mut builder = PageBuilder::new(self.schema.clone());
        let (cost, finished) = match &mut self.emit {
            Emit::Nothing => return Ok((0, true)),
            Emit::Buffered { order, next } => {
                let end = (*next + self.emit_batch_rows).min(order.len());
                for &idx in &order[*next..end] {
                    let (p, r) = self.locs[idx as usize];
                    let raw = self.pages[p as usize].tuple(r as usize).raw();
                    emit_row(&mut builder, out, raw);
                }
                *next = end;
                (1, end == order.len())
            }
            Emit::Runs(merge) => {
                let mut emitted = 0usize;
                while emitted < self.emit_batch_rows {
                    let Some((i, raw)) = merge.min_row(&self.keys) else {
                        break;
                    };
                    emit_row(&mut builder, out, raw);
                    emitted += 1;
                    merge.advance(i, &mut self.keys, &self.key_cols, &self.spill)?;
                }
                let finished = merge.min_cursor(&self.keys).is_none();
                (self.cost.input_cost(emitted).max(1), finished)
            }
        };
        if !builder.is_empty() {
            out.push(builder.finish_and_reset());
        }
        if finished {
            self.release();
        }
        Ok((cost, false))
    }

    /// Buffered pages and their grant, spilled runs, open merge cursors.
    fn release(&mut self) {
        self.free_buffered();
        self.runs.clear();
        self.emit = Emit::Nothing;
    }
}

/// A read cursor over one sorted run: the current page, the row within
/// it, and that page's extracted sort keys.
struct RunCursor {
    reader: SpillReader,
    page: Option<Arc<Page>>,
    row: usize,
    /// Packed keys for the current page (packed mode).
    packed: Vec<u64>,
    /// Key of the current row (general mode).
    gkey: Vec<KeyVal>,
    /// Bytes granted for the current page.
    granted: usize,
}

impl RunCursor {
    /// Loads the next page of the run (releasing the previous page's
    /// grant) and extracts its keys.
    fn load_next(
        &mut self,
        keys: &mut Keys,
        key_cols: &[usize],
        spill: &SpillContext,
    ) -> Result<(), ExecError> {
        spill.broker.release(self.granted);
        self.granted = 0;
        self.page = spill.io(OP).next_page(&mut self.reader)?;
        self.row = 0;
        if let Some(page) = &self.page {
            self.granted = page.byte_len();
            spill.broker.grant(self.granted);
            match keys {
                Keys::Packed { spec, scratch, .. } => {
                    self.packed.clear();
                    spec.extend_keys(page, scratch, &mut self.packed);
                }
                Keys::General(_) => self.gkey = key_of(&page.tuple(0), key_cols),
            }
        }
        Ok(())
    }
}

/// A k-way merge over sorted runs. Cursor order is run (arrival)
/// order; [`KWayMerge::min_row`] resolves equal keys toward the lowest
/// cursor index, which makes the merged output exactly the stable
/// in-memory sort. Dropping the merge returns every cursor's page
/// grant and deletes the runs.
struct KWayMerge {
    cursors: Vec<RunCursor>,
    broker: MemoryBroker,
}

impl KWayMerge {
    /// Opens every run and primes the first page of each.
    fn open(
        runs: Vec<SpillFile>,
        keys: &mut Keys,
        key_cols: &[usize],
        spill: &SpillContext,
    ) -> Result<Self, ExecError> {
        let mut merge = KWayMerge {
            cursors: Vec::with_capacity(runs.len()),
            broker: spill.broker.clone(),
        };
        for run in runs {
            let mut cursor = RunCursor {
                reader: spill.io(OP).open(run)?,
                page: None,
                row: 0,
                packed: Vec::new(),
                gkey: Vec::new(),
                granted: 0,
            };
            cursor.load_next(keys, key_cols, spill)?;
            merge.cursors.push(cursor);
        }
        Ok(merge)
    }

    /// Index of the cursor holding the smallest current key; ties go to
    /// the lowest index (earliest run). `None` when every run is
    /// exhausted.
    fn min_cursor(&self, keys: &Keys) -> Option<usize> {
        let mut best: Option<usize> = None;
        match keys {
            Keys::Packed { .. } => {
                let mut best_key = 0u64;
                for (i, c) in self.cursors.iter().enumerate() {
                    if c.page.is_none() {
                        continue;
                    }
                    let k = c.packed[c.row];
                    if best.is_none() || k < best_key {
                        best = Some(i);
                        best_key = k;
                    }
                }
            }
            Keys::General(_) => {
                for (i, c) in self.cursors.iter().enumerate() {
                    if c.page.is_none() {
                        continue;
                    }
                    if best.is_none_or(|b| c.gkey < self.cursors[b].gkey) {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// [`KWayMerge::min_cursor`] and the raw bytes of its current row.
    fn min_row(&self, keys: &Keys) -> Option<(usize, &[u8])> {
        let i = self.min_cursor(keys)?;
        let cursor = &self.cursors[i];
        Some((i, cursor.page.as_ref()?.tuple(cursor.row).raw()))
    }

    /// Steps cursor `i` past its current row.
    fn advance(
        &mut self,
        i: usize,
        keys: &mut Keys,
        key_cols: &[usize],
        spill: &SpillContext,
    ) -> Result<(), ExecError> {
        let cursor = &mut self.cursors[i];
        match &cursor.page {
            Some(page) if cursor.row + 1 < page.rows() => {
                cursor.row += 1;
                if let Keys::General(_) = keys {
                    cursor.gkey = key_of(&page.tuple(cursor.row), key_cols);
                }
                Ok(())
            }
            _ => cursor.load_next(keys, key_cols, spill),
        }
    }
}

impl Drop for KWayMerge {
    fn drop(&mut self) {
        for cursor in &self.cursors {
            self.broker.release(cursor.granted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FaultCell;
    use crate::ops::testutil::{drive, pages_of, run_shell};
    use cordoba_storage::{DataType, Field, Value};

    fn sort_of(schema: &Arc<Schema>, keys: Vec<usize>, spill: SpillContext) -> SortKernel {
        SortKernel::new(schema.clone(), keys, OpCost::default(), spill).expect("valid sort keys")
    }

    fn run_sort_with(
        rows: Vec<Vec<Value>>,
        schema: Arc<Schema>,
        keys: Vec<usize>,
        spill: SpillContext,
    ) -> Vec<Vec<Value>> {
        let pages = pages_of(&schema, &rows);
        drive(&mut sort_of(&schema, keys, spill), &[&pages]).expect("sort must not fault")
    }

    fn run_sort(rows: Vec<Vec<Value>>, schema: Arc<Schema>, keys: Vec<usize>) -> Vec<Vec<Value>> {
        run_sort_with(rows, schema, keys, SpillContext::unbounded())
    }

    #[test]
    fn sorts_ints_ascending() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = [5i64, 3, 9, 1, 7, 1]
            .iter()
            .map(|&v| vec![Value::Int(v)])
            .collect();
        let got = run_sort(rows, schema, vec![0]);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn negative_keys_sort_through_packed_path() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = [5i64, -3, 0, i64::MIN, i64::MAX, -3]
            .iter()
            .map(|&v| vec![Value::Int(v)])
            .collect();
        let got = run_sort(rows, schema, vec![0]);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![i64::MIN, -3, -3, 0, 5, i64::MAX]);
    }

    #[test]
    fn multi_key_sort_major_first() {
        // Str(2) + Int = 10 bytes: exercises the general (wide-key)
        // fallback path.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str(2)),
            Field::new("b", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Str("y".into()), Value::Int(1)],
            vec![Value::Str("x".into()), Value::Int(2)],
            vec![Value::Str("x".into()), Value::Int(1)],
            vec![Value::Str("y".into()), Value::Int(0)],
        ];
        let got = run_sort(rows, schema, vec![0, 1]);
        assert_eq!(
            got,
            vec![
                vec![Value::Str("x".into()), Value::Int(1)],
                vec![Value::Str("x".into()), Value::Int(2)],
                vec![Value::Str("y".into()), Value::Int(0)],
                vec![Value::Str("y".into()), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn packed_composite_key_sorts_major_first() {
        // Str(2) + Date = 6 bytes: packed composite key.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str(2)),
            Field::new("d", DataType::Date),
        ]);
        let rows = vec![
            vec![
                Value::Str("y".into()),
                Value::Date(cordoba_storage::Date(1)),
            ],
            vec![
                Value::Str("x".into()),
                Value::Date(cordoba_storage::Date(2)),
            ],
            vec![
                Value::Str("x".into()),
                Value::Date(cordoba_storage::Date(-1)),
            ],
            vec![Value::Str("".into()), Value::Date(cordoba_storage::Date(9))],
        ];
        let got = run_sort(rows, schema, vec![0, 1]);
        assert_eq!(
            got,
            vec![
                vec![Value::Str("".into()), Value::Date(cordoba_storage::Date(9))],
                vec![
                    Value::Str("x".into()),
                    Value::Date(cordoba_storage::Date(-1))
                ],
                vec![
                    Value::Str("x".into()),
                    Value::Date(cordoba_storage::Date(2))
                ],
                vec![
                    Value::Str("y".into()),
                    Value::Date(cordoba_storage::Date(1))
                ],
            ]
        );
    }

    #[test]
    fn large_sort_spans_many_pages() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = (0..5000).rev().map(|v| vec![Value::Int(v)]).collect();
        let got = run_sort(rows, schema, vec![0]);
        assert_eq!(got.len(), 5000);
        assert!(got.windows(2).all(|w| w[0][0].as_int() <= w[1][0].as_int()));
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        assert!(run_sort(vec![], schema, vec![0]).is_empty());
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        // The permutation sort is stable; rows with equal keys keep
        // arrival order (matters for reference-executor equivalence).
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i % 3), Value::Int(i)])
            .collect();
        let got = run_sort(rows, schema, vec![0]);
        for w in got.windows(2) {
            if w[0][0] == w[1][0] {
                assert!(w[0][1].as_int() < w[1][1].as_int());
            }
        }
    }

    #[test]
    fn out_of_range_key_errors_at_construction() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let err = SortKernel::new(
            schema,
            vec![7],
            OpCost::default(),
            SpillContext::unbounded(),
        )
        .err()
        .expect("constructor must reject");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn tiny_budget_spills_and_matches_in_memory_sort() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..4000)
            .map(|i| vec![Value::Int((i * 7919) % 50), Value::Int(i)])
            .collect();
        let want = run_sort(rows.clone(), schema.clone(), vec![0]);

        // Budget of 4 pages vs ~16 pages of input: several spilled runs.
        let spill = SpillContext::with_budget(4 * PAGE_SIZE);
        let broker = spill.broker.clone();
        let got = run_sort_with(rows, schema, vec![0], spill);
        assert!(broker.peak() > 0, "broker must have tracked memory");
        assert_eq!(broker.used(), 0, "all grants released at completion");
        assert_eq!(got, want, "spilled sort must equal in-memory stable sort");
    }

    #[test]
    fn one_page_budget_forces_cascaded_merges() {
        // merge_fanout clamps to 2, and ~16 runs of one page each force
        // several cascade passes before the final merge.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..4000)
            .map(|i| vec![Value::Int(((i * 31) % 11) - 5), Value::Int(i)])
            .collect();
        let want = run_sort(rows.clone(), schema.clone(), vec![0]);
        let got = run_sort_with(rows, schema, vec![0], SpillContext::with_budget(PAGE_SIZE));
        assert_eq!(got, want);
    }

    #[test]
    fn tiny_budget_spills_wide_keys_through_general_path() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str(4)),
            Field::new("b", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..2000)
            .map(|i| {
                vec![
                    Value::Str(format!("s{:02}", i % 13)),
                    Value::Int((i * 17) % 7),
                    Value::Int(i),
                ]
            })
            .collect();
        let want = run_sort(rows.clone(), schema.clone(), vec![0, 1]);
        let got = run_sort_with(
            rows,
            schema,
            vec![0, 1],
            SpillContext::with_budget(2 * PAGE_SIZE),
        );
        assert_eq!(got, want);
    }

    #[test]
    fn mismatched_page_schema_faults_instead_of_panicking() {
        let sort_schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let wrong = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let pages = pages_of(&wrong, &[vec![Value::Int(1), Value::Int(2)]]);
        let sort = sort_of(&sort_schema, vec![0], SpillContext::unbounded());
        let fault = FaultCell::default();
        let out = run_shell(Box::new(sort), vec![pages], &fault);
        assert_eq!(
            fault.get(),
            Some(ExecError::InputPageMismatch {
                op: "sort",
                detail: "expected 1 columns / 8 B rows, got 2 columns / 16 B rows".into()
            })
        );
        assert!(out.is_empty());
    }

    #[test]
    fn spill_io_error_faults_the_query() {
        // Point the spill dir at a path that cannot be created (a file
        // stands where the directory should go).
        let blocker =
            std::env::temp_dir().join(format!("cordoba-sort-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("create blocker");
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = (0..2000).map(|i| vec![Value::Int(i)]).collect();
        let mut spill = SpillContext::with_budget(PAGE_SIZE);
        spill.dir = blocker.clone();
        let broker = spill.broker.clone();
        let mut sort = sort_of(&schema, vec![0], spill);
        let err = drive(&mut sort, &[&pages_of(&schema, &rows)]).expect_err("cannot spill");
        assert!(
            matches!(err, ExecError::Spill { op: "sort", .. }),
            "{err:?}"
        );
        sort.release();
        assert_eq!(broker.used(), 0, "the buffered page's grant came back");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn spilled_sort_peak_stays_near_budget() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = (0..20_000).rev().map(|v| vec![Value::Int(v)]).collect();
        // ~156 KiB of input against a 32 KiB budget (≥ 4× over).
        let budget = 8 * PAGE_SIZE;
        let spill = SpillContext::with_budget(budget);
        let broker = spill.broker.clone();
        let got = run_sort_with(rows, schema, vec![0], spill);
        assert_eq!(got.len(), 20_000);
        assert!(
            broker.peak() <= budget + budget / 4,
            "peak {} exceeds 1.25 × budget {}",
            broker.peak(),
            budget
        );
    }
}
