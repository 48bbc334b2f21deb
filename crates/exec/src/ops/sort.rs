//! Full sort (stop-&-go): materializes its input, sorts, then streams
//! the result — the canonical blocking operator of the paper's
//! Section 5.2 phase decomposition.
//!
//! Buffered pages are kept whole; intake appends one `(key, (page,
//! row))` entry per row to a single flat vector and the sort orders
//! that vector, so no row moves until emission slices it straight out
//! of its page's payload. Keys totalling ≤ 8 bytes pack into an
//! order-preserving `u64` ([`PackedKeySpec`], gathered page-at-a-time)
//! and are ordered by a stable LSD **radix sort** that skips every
//! byte position on which all keys of the batch agree (a date key
//! spanning a few years takes 2 passes of 8). Wider keys fall back to
//! per-row [`KeyVal`] tuples under a stable comparison sort.
//!
//! # Out-of-core operation
//!
//! The buffered input is charged to the query's
//! [`MemoryBroker`](crate::MemoryBroker), which is asked to leave room
//! for the frame of the run stream. When a grant is refused the task
//! **spills**: it sorts the buffered batch, writes it to a
//! [`SpillFile`] as a sorted run, and releases the memory (the key
//! vectors keep their capacity for the next batch). After input ends
//! the runs are k-way merged — cascaded first if there are more runs
//! than the budget allows open cursors — by a **loser tree** over
//! `(key, run index)`: one root-to-leaf replay per row instead of a
//! scan of every cursor. Runs are chronological and the run index
//! breaks key ties toward the earliest run, so spilled output is
//! *identical*, row for row, to the in-memory stable sort. With an
//! unbounded broker (the default) no spilling occurs and behaviour is
//! unchanged.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::memory::{SpillContext, SpillCursor};
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port, PortClosed};
use crate::ops::sort_key::{KeyScratch, PackedKeySpec};
use crate::ops::{key_of, KeyVal};
use cordoba_sim::VTime;
use cordoba_storage::spill::SpillFile;
use cordoba_storage::{Page, PageBuilder, Schema, PAGE_SIZE};
use std::sync::Arc;

/// The operator's name in faults.
const OP: &str = "sort";

/// Bytes emitted per `drain` call during the output phase (≈4 pages).
const EMIT_BYTES: usize = 16 * 1024;

/// Cursor fan-in cap for one merge pass.
const MAX_MERGE_FANOUT: usize = 64;

/// Where a buffered row sits: `(page, row)` into the kernel's pages.
type Loc = (u32, u32);

/// How rows get their sort word: packed into it when the key columns
/// fit a machine word, else kept beside as per-row tuples.
enum Keys {
    Packed {
        spec: PackedKeySpec,
        scratch: KeyScratch,
        /// The keys of the page in hand.
        page_keys: Vec<u64>,
        /// The buffer the radix passes alternate the rows with.
        tmp: Vec<(u64, Loc)>,
    },
    /// The wide keys of the buffered rows, in arrival order.
    General(Vec<Vec<KeyVal>>),
}

/// Sorts `rows` by key: a stable LSD radix sort, one byte of the key
/// per pass, least significant first. A first scan ORs `key ^ first`
/// to learn on which byte positions the keys differ at all; only those
/// get a counting pass (the others would move nothing). The passes
/// scatter between `rows` and `tmp`, and the result ends up in `rows`.
fn radix_sort(rows: &mut Vec<(u64, Loc)>, tmp: &mut Vec<(u64, Loc)>) {
    let Some(&(first, _)) = rows.first() else {
        return;
    };
    let differing = rows.iter().fold(0, |acc, &(key, _)| acc | (key ^ first));
    let shifts: Vec<u32> = (0..64)
        .step_by(8)
        .filter(|&shift| (differing >> shift) & 0xFF != 0)
        .collect();
    if shifts.is_empty() {
        return;
    }
    let mut counts = vec![[0usize; 256]; shifts.len()];
    for &(key, _) in rows.iter() {
        for (count, &shift) in counts.iter_mut().zip(&shifts) {
            count[(key >> shift) as u8 as usize] += 1;
        }
    }
    // Every slot is overwritten by the first scatter; only new ones
    // need a value.
    tmp.resize(rows.len(), (0, (0, 0)));
    for (slots, &shift) in counts.iter_mut().zip(&shifts) {
        // Digit counts become each digit's first output slot.
        let mut at = 0;
        for slot in slots.iter_mut() {
            at += std::mem::replace(slot, at);
        }
        for &row in rows.iter() {
            let slot = &mut slots[(row.0 >> shift) as u8 as usize];
            tmp[*slot] = row;
            *slot += 1;
        }
        std::mem::swap(rows, tmp);
    }
}

/// The raw bytes of row `row` of `page`: one slice of its payload.
fn raw_row(page: &Page, row: usize) -> &[u8] {
    let width = page.schema().row_width();
    &page.payload()[row * width..][..width]
}

/// Where `drain` takes the sorted rows from.
enum Source {
    /// The buffered pages, in key order from position `next`.
    Buffered { next: usize },
    /// The spilled runs.
    Runs(KWayMerge),
}

/// The output phase: the page being filled — one builder for the whole
/// emission — and where its rows come from.
struct Emit {
    builder: PageBuilder,
    from: Source,
}

/// Sort kernel (ascending by the given key columns, major first): the
/// buffered pages and their keys, the spilled runs, and the emission
/// cursor. [`super::OperatorShell`] runs it as a task.
pub struct SortKernel {
    key_cols: Vec<usize>,
    cost: OpCost,
    schema: Arc<Schema>,
    /// Buffered input pages (rows are emitted from here by reference).
    pages: Vec<Arc<Page>>,
    /// What the sort orders, one entry per buffered row: its sort word
    /// — the packed key, or on the wide-key path the row's arrival
    /// number, which indexes [`Keys::General`] — and where the row is.
    rows: Vec<(u64, Loc)>,
    keys: Keys,
    /// `None` until the input has ended and again once every row has
    /// left.
    emit: Option<Emit>,
    emit_batch_rows: usize,
    spill: SpillContext,
    /// Pages in the frame of the stream a run is written through.
    run_frame: usize,
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
                page_keys: Vec::new(),
                tmp: Vec::new(),
            },
            None => Keys::General(Vec::new()),
        };
        Ok(Self {
            key_cols: keys,
            cost,
            emit_batch_rows: (EMIT_BYTES / schema.row_width()).max(1),
            schema,
            pages: Vec::new(),
            rows: Vec::new(),
            keys: keys_state,
            emit: None,
            run_frame: spill.frame_pages(1),
            spill,
            granted: 0,
            runs: Vec::new(),
        })
    }

    /// Orders `rows` by key (stable: equal keys keep arrival order,
    /// matching the reference executor). The wide keys are not needed
    /// after it.
    fn sort_rows(&mut self) {
        match &mut self.keys {
            Keys::Packed { tmp, .. } => radix_sort(&mut self.rows, tmp),
            Keys::General(keys) => {
                let key = |row: &(u64, Loc)| &keys[row.0 as usize];
                self.rows.sort_by(|a, b| key(a).cmp(key(b)));
                keys.clear();
            }
        }
    }

    /// Drops the buffered pages and returns their grant; `rows` keeps
    /// its capacity for the next batch.
    fn free_buffered(&mut self) {
        self.pages.clear();
        self.rows.clear();
        self.spill.broker.release(self.granted);
        self.granted = 0;
    }

    /// Sorts the buffered batch, writes it out as one run, and frees
    /// its memory. Returns the number of rows spilled.
    fn spill_run(&mut self) -> Result<usize, ExecError> {
        let rows = self.rows.len();
        if rows == 0 {
            return Ok(0);
        }
        self.sort_rows();
        let io = self.spill.io(OP);
        let mut run = io.create(self.schema.clone(), self.run_frame)?;
        for &(_, (page, row)) in &self.rows {
            io.push(&mut run, raw_row(&self.pages[page as usize], row as usize))?;
        }
        self.runs.push(io.finish(run)?);
        self.free_buffered();
        Ok(rows)
    }

    /// How many run cursors the budget allows open at once during a
    /// merge (each holds two pages at least, one buffering the file and
    /// the one in hand; two pages are reserved for the output builder
    /// and slack).
    fn merge_fanout(&self) -> usize {
        match self.spill.broker.budget() {
            Some(b) => ((b / PAGE_SIZE).saturating_sub(2) / 2).clamp(2, MAX_MERGE_FANOUT),
            None => MAX_MERGE_FANOUT,
        }
    }

    /// Merges the first `k` runs into one, reinserted at the front so
    /// the run list stays chronological (ties still resolve toward the
    /// earliest-arrived row).
    fn merge_front_runs(&mut self, k: usize) -> Result<usize, ExecError> {
        let rest = self.runs.split_off(k);
        let front = std::mem::replace(&mut self.runs, rest);
        // The cursors and the output stream share the grant.
        let frame = self.spill.frame_pages(k + 1);
        let mut merge = KWayMerge::open(front, frame, &mut self.keys, &self.key_cols, &self.spill)?;
        let io = self.spill.io(OP);
        let mut merged = io.create(self.schema.clone(), frame)?;
        let mut rows = 0usize;
        while let Some(raw) = merge.min_row() {
            io.push(&mut merged, raw)?;
            rows += 1;
            merge.advance(&mut self.keys, &self.key_cols, &self.spill)?;
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
        let frame = self.spill.frame_pages(runs.len());
        let merge = KWayMerge::open(runs, frame, &mut self.keys, &self.key_cols, &self.spill)?;
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
        vec![("", Some(self.schema.clone()))]
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
        if !self.spill.grant_beside(bytes, &self.schema, self.run_frame) {
            // Over budget with the run stream's frame counted: spill
            // the buffered batch as a sorted run and take the page, as
            // the operator's whole holding, whatever the budget.
            let spilled = self.spill_run()?;
            cost += self.cost.input_cost(spilled);
            self.spill.broker.grant(bytes);
        }
        self.granted += bytes;
        let page_idx = self.pages.len() as u32;
        let locs = (0..page.rows() as u32).map(|r| (page_idx, r));
        match &mut self.keys {
            Keys::Packed {
                spec,
                scratch,
                page_keys,
                ..
            } => {
                page_keys.clear();
                spec.extend_keys(page, scratch, page_keys);
                self.rows.extend(page_keys.iter().copied().zip(locs));
            }
            Keys::General(keys) => {
                let arrivals = keys.len() as u64..;
                keys.extend(page.tuples().map(|t| key_of(&t, &self.key_cols)));
                self.rows.extend(arrivals.zip(locs));
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
        let (cost, from) = if self.runs.is_empty() {
            // Fully in-memory: the actual sort. Charged linearly per
            // tuple to keep the model's per-unit-progress cost
            // structure; the log factor is ~constant across the paper's
            // scales.
            self.sort_rows();
            let cost = self.cost.input_cost(self.rows.len());
            (cost, Source::Buffered { next: 0 })
        } else {
            let (cost, merge) = self.begin_merge()?;
            (cost, Source::Runs(merge))
        };
        self.emit = Some(Emit {
            builder: PageBuilder::new(self.schema.clone()),
            from,
        });
        Ok(PortClosed {
            cost,
            min_tick: 1,
            last: false,
        })
    }

    /// Up to a batch of rows per call, always at least a tick so
    /// emission advances virtual time; a call ends its last page even
    /// when partly filled. The closing call emits nothing.
    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        let Some(Emit { builder, from }) = &mut self.emit else {
            return Ok(Drained::LAST);
        };
        let (cost, finished) = match from {
            Source::Buffered { next } => {
                let end = (*next + self.emit_batch_rows).min(self.rows.len());
                for &(_, (page, row)) in &self.rows[*next..end] {
                    emit_row(
                        builder,
                        out,
                        raw_row(&self.pages[page as usize], row as usize),
                    );
                }
                *next = end;
                (1, end == self.rows.len())
            }
            Source::Runs(merge) => {
                let mut emitted = 0usize;
                while emitted < self.emit_batch_rows {
                    let Some(raw) = merge.min_row() else {
                        break;
                    };
                    emit_row(builder, out, raw);
                    emitted += 1;
                    merge.advance(&mut self.keys, &self.key_cols, &self.spill)?;
                }
                let finished = merge.min_row().is_none();
                (self.cost.input_cost(emitted).max(1), finished)
            }
        };
        if !builder.is_empty() {
            out.push(builder.finish_and_reset());
        }
        if finished {
            self.release();
        }
        Ok(Drained::batch(cost))
    }

    /// Buffered pages and their grant, spilled runs, open merge cursors,
    /// the output builder.
    fn release(&mut self) {
        self.free_buffered();
        self.runs.clear();
        self.emit = None;
    }
}

/// A run's current key as the merge compares it. The derived order is
/// the key order (one sort's keys are all of one kind) with an
/// exhausted run after every key.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Head {
    Packed(u64),
    General(Vec<KeyVal>),
    Done,
}

/// A loser tree over the runs' heads: the smallest `(head, run index)`
/// — equal keys go to the earliest run — found again after the winning
/// run moves on by one replay of its leaf-to-root path, `⌈log₂ k⌉`
/// comparisons instead of a scan of all `k` runs.
///
/// The tree is implicit over `k` leaves: node `n`'s children are `2n`
/// and `2n + 1`, run `i` is leaf `k + i`. `tree[n]` for `n ≥ 1` holds
/// the run that *lost* the match at node `n`, `tree[0]` the overall
/// winner.
struct Tournament {
    heads: Vec<Head>,
    tree: Vec<u32>,
}

impl Tournament {
    /// Plays every match once, bottom-up.
    fn new(heads: Vec<Head>) -> Self {
        let k = heads.len();
        let mut t = Tournament {
            heads,
            tree: vec![0; k.max(1)],
        };
        // Winner of the subtree under each node; the leaves are the runs.
        let mut winners = vec![0u32; 2 * k];
        for (run, leaf) in winners[k..].iter_mut().enumerate() {
            *leaf = run as u32;
        }
        for n in (1..k).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            let (winner, loser) = if t.beats(a, b) { (a, b) } else { (b, a) };
            winners[n] = winner;
            t.tree[n] = loser;
        }
        t.tree[0] = winners.get(1).copied().unwrap_or(0);
        t
    }

    /// Whether run `a` comes out before run `b`.
    fn beats(&self, a: u32, b: u32) -> bool {
        (&self.heads[a as usize], a) < (&self.heads[b as usize], b)
    }

    /// The run holding the smallest head, `None` when every run is
    /// exhausted.
    fn winner(&self) -> Option<usize> {
        let run = self.tree[0] as usize;
        match self.heads.get(run)? {
            Head::Done => None,
            _ => Some(run),
        }
    }

    /// Gives the winning run its next head and replays its matches up
    /// to the root.
    fn replace_winner(&mut self, head: Head) {
        let mut winner = self.tree[0];
        self.heads[winner as usize] = head;
        let mut n = (self.heads.len() + winner as usize) / 2;
        while n >= 1 {
            if self.beats(self.tree[n], winner) {
                std::mem::swap(&mut self.tree[n], &mut winner);
            }
            n /= 2;
        }
        self.tree[0] = winner;
    }
}

/// A read cursor over one sorted run: the current page (a page of the
/// open stream's frame), the row within it, and that page's extracted
/// sort keys.
struct RunCursor {
    reader: SpillCursor,
    page: Option<Arc<Page>>,
    row: usize,
    /// Packed keys for the current page (packed mode).
    packed: Vec<u64>,
}

impl RunCursor {
    /// Loads the next page of the run and extracts its keys.
    fn load_next(&mut self, keys: &mut Keys, spill: &SpillContext) -> Result<(), ExecError> {
        self.page = spill.io(OP).next_page(&mut self.reader)?;
        self.row = 0;
        if let Some(page) = &self.page {
            if let Keys::Packed { spec, scratch, .. } = keys {
                self.packed.clear();
                spec.extend_keys(page, scratch, &mut self.packed);
            }
        }
        Ok(())
    }

    /// The key of the current row.
    fn head(&self, keys: &Keys, key_cols: &[usize]) -> Head {
        match (&self.page, keys) {
            (None, _) => Head::Done,
            (Some(_), Keys::Packed { .. }) => Head::Packed(self.packed[self.row]),
            (Some(page), Keys::General(_)) => {
                Head::General(key_of(&page.tuple(self.row), key_cols))
            }
        }
    }
}

/// A k-way merge over sorted runs. Cursor order is run (arrival)
/// order and the tournament resolves equal keys toward the lowest
/// cursor index, which makes the merged output exactly the stable
/// in-memory sort. Dropping the merge returns every cursor's frame
/// and deletes the runs.
struct KWayMerge {
    cursors: Vec<RunCursor>,
    /// Which cursor holds the smallest current key.
    tournament: Tournament,
}

impl KWayMerge {
    /// Opens every run with a frame of `frame` pages and primes the
    /// first page of each.
    fn open(
        runs: Vec<SpillFile>,
        frame: usize,
        keys: &mut Keys,
        key_cols: &[usize],
        spill: &SpillContext,
    ) -> Result<Self, ExecError> {
        let mut merge = KWayMerge {
            cursors: Vec::with_capacity(runs.len()),
            tournament: Tournament::new(Vec::new()),
        };
        for run in runs {
            let mut cursor = RunCursor {
                reader: spill.io(OP).open(run, frame)?,
                page: None,
                row: 0,
                packed: Vec::new(),
            };
            cursor.load_next(keys, spill)?;
            merge.cursors.push(cursor);
        }
        let heads = merge.cursors.iter().map(|c| c.head(keys, key_cols));
        merge.tournament = Tournament::new(heads.collect());
        Ok(merge)
    }

    /// The raw bytes of the smallest current row; ties go to the
    /// earliest run. `None` when every run is exhausted.
    fn min_row(&self) -> Option<&[u8]> {
        let cursor = &self.cursors[self.tournament.winner()?];
        Some(raw_row(cursor.page.as_ref()?, cursor.row))
    }

    /// Steps the cursor [`KWayMerge::min_row`] read from past that row.
    fn advance(
        &mut self,
        keys: &mut Keys,
        key_cols: &[usize],
        spill: &SpillContext,
    ) -> Result<(), ExecError> {
        let Some(winner) = self.tournament.winner() else {
            return Ok(());
        };
        let cursor = &mut self.cursors[winner];
        match &cursor.page {
            Some(page) if cursor.row + 1 < page.rows() => cursor.row += 1,
            _ => cursor.load_next(keys, spill)?,
        }
        self.tournament.replace_winner(cursor.head(keys, key_cols));
        Ok(())
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

    /// The merge the tournament replaced: scan every run's current
    /// row, the lowest run index winning ties.
    fn linear_scan_merge(runs: &[Vec<(i64, i64)>]) -> Vec<(i64, i64)> {
        let mut at = vec![0usize; runs.len()];
        let mut out = Vec::new();
        loop {
            let mut best: Option<usize> = None;
            for (i, run) in runs.iter().enumerate() {
                if at[i] < run.len() && best.is_none_or(|b| run[at[i]].0 < runs[b][at[b]].0) {
                    best = Some(i);
                }
            }
            let Some(b) = best else {
                return out;
            };
            out.push(runs[b][at[b]]);
            at[b] += 1;
        }
    }

    /// Hands `runs` of `(k, seq)` rows, each in key order, to a sort as
    /// its spilled runs and ends its input: what the (cascaded) merge
    /// emits.
    fn merge_runs(runs: &[Vec<(i64, i64)>]) -> Vec<(i64, i64)> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let mut sort = sort_of(&schema, vec![0], SpillContext::unbounded());
        let io = sort.spill.io(OP);
        for run in runs {
            let mut stream = io.create(schema.clone(), 1).expect("create run");
            for (k, seq) in run {
                let raw = [k.to_le_bytes(), seq.to_le_bytes()].concat();
                io.push(&mut stream, &raw).expect("write run");
            }
            sort.runs.push(io.finish(stream).expect("seal run"));
        }
        let got = drive(&mut sort, &[&[]]).expect("merge must not fault");
        assert_eq!(sort.spill.broker.used(), 0, "cursor pages returned");
        got.iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn loser_tree_merge_matches_linear_scan() {
        // 65 runs exceed the fan-in cap of 64: a cascade, then a
        // two-way final merge.
        for k in [1usize, 2, 3, 64, 65] {
            // Run lengths 1..=600 (some a single row, some several
            // pages), so runs drain at different times; five distinct
            // keys, so nearly every comparison is a tie between runs.
            let mut seq = 0i64;
            let runs: Vec<Vec<(i64, i64)>> = (0..k)
                .map(|i| {
                    let len = [1, 600, 2, 37, 300][i % 5] + i / 5;
                    let mut keys: Vec<i64> = (0..len).map(|j| ((j * 7 + i) % 5) as i64).collect();
                    keys.sort_unstable();
                    let stamped = keys.into_iter().map(|key| {
                        seq += 1;
                        (key, seq)
                    });
                    stamped.collect()
                })
                .collect();
            let got = merge_runs(&runs);
            assert_eq!(got, linear_scan_merge(&runs), "{k} runs");
            // Stability: runs are chronological, so within a key the
            // arrival stamps ascend.
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "{k} runs: (key, seq) must ascend strictly"
            );
        }
    }

    #[test]
    fn loser_tree_merges_distinct_keys_and_extremes() {
        let runs = vec![
            vec![(i64::MIN, 0), (-1, 1), (7, 2)],
            vec![(0, 3)],
            vec![(-1, 4), (i64::MAX, 5)],
            vec![(i64::MIN, 6), (i64::MAX, 7)],
        ];
        let got = merge_runs(&runs);
        assert_eq!(got, linear_scan_merge(&runs));
        let keys: Vec<i64> = got.iter().map(|r| r.0).collect();
        assert_eq!(
            keys,
            vec![i64::MIN, i64::MIN, -1, -1, 0, 7, i64::MAX, i64::MAX]
        );
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
