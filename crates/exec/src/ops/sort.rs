//! Full sort (stop-&-go): materializes its input, sorts, then streams
//! the result — the canonical blocking operator of the paper's
//! Section 5.2 phase decomposition.
//!
//! # The order
//!
//! Buffered pages are kept whole. The sort orders one flat vector of
//! `u64`s, the **order**, holding one element per buffered row: its
//! sort key and its place, `(page, row)`. No row moves until emission
//! slices it straight out of its page's payload. The order takes one of
//! three forms:
//!
//! * **One word a row.** Keys totalling ≤ 8 bytes pack into an
//!   order-preserving `u64` ([`PackedKeySpec`]), gathered a page at a
//!   time straight into the order, which learns the batch's smallest
//!   key, its largest and the bits on which keys differ as it goes.
//!   When the spread `(max − min) >> tz` (`tz`: the low bits every key
//!   shares) fits beside the place — `page` and `row` take as many bits
//!   as the batch's page count and its fullest page need — each row
//!   becomes one word, `((key − min) >> tz) << loc_bits | page <<
//!   row_bits | row`. A stable LSD **radix sort** orders the words over
//!   their key digits alone, skipping every digit on which all keys
//!   agree (a date key spanning a few years takes 2 passes of 8). The
//!   words arrive in place order, so stability keeps equal keys in
//!   arrival order and the place bits are never sorted.
//! * **An entry a row.** A spread that does not fit (a `Float` key of
//!   both signs, an `Int` key spanning more than the 40-odd bits a few
//!   thousand pages leave) keeps the key whole beside the place, `[key,
//!   page << 32 | row]`, and the same radix sort orders the entries over
//!   the digits on which keys differ.
//! * **Compared entries.** Wider keys fall back to per-row [`Key`]s —
//!   their cells under
//!   [`Value::total_cmp`](cordoba_storage::Value::total_cmp), the order
//!   the packed word keeps too — and a stable comparison sort orders
//!   entries `[arrival, page << 32 | row]` by them.
//!
//! The order is reserved to the batch, not grown by doubling, and the
//! radix passes scatter into a second half of it: 16 B a row as words,
//! 32 B as entries, 16 B as compared entries. It is not on the broker's
//! books — only the buffered pages are granted — and beside narrow rows
//! (12 B for the benchmark's `sort_agg`) it is a large share of what
//! the sort holds.
//!
//! Key order visits the buffered pages at random, so emitting or
//! spilling the sorted rows is a gather of cache misses: it prefetches
//! the row `AHEAD` sorted positions on ([`Page::prefetch_row`]) before
//! it copies the current one.
//!
//! # Live columns
//!
//! A sort carries only the columns its consumer reads, plus its keys;
//! the wiring decides which ([`SortKernel::new`] carries them all).
//! Intake compacts those columns of each page into a page of the sort's
//! own, so the buffered pages, their grants, the spilled runs and the
//! merge all hold narrow rows; when the carried columns are the whole
//! input row, the page is buffered as it came, with no copy. Output
//! pages and emission batches are sized by the *unnarrowed* row width:
//! a narrowed sort emits as many rows per page and per step as a whole
//! one, so it charges the same virtual time.
//!
//! # Out-of-core operation
//!
//! The buffered input is charged to the query's
//! [`MemoryBroker`](crate::MemoryBroker), which is asked to leave room
//! for the frame of the run stream. When a grant is refused the task
//! **spills**: it sorts the buffered batch, writes it to a
//! [`SpillFile`] as a sorted run, and releases the memory (the order
//! keeps its capacity for the next batch). After input ends
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
use crate::memory::{QueryResources, SpillCursor};
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port, PortClosed};
use crate::ops::sort_key::{KeyScratch, PackedKeySpec};
use crate::ops::{key_of, page_builder, Carry, Key};
use cordoba_sim::VTime;
use cordoba_storage::spill::SpillFile;
use cordoba_storage::{Page, PageBuilder, Schema, PAGE_SIZE};
use std::ops::Range;
use std::sync::Arc;

/// The operator's name in faults.
const OP: &str = "sort";

/// Bytes emitted per `drain` call during the output phase (≈4 pages).
const EMIT_BYTES: usize = 16 * 1024;

/// Cursor fan-in cap for one merge pass.
const MAX_MERGE_FANOUT: usize = 64;

/// How many sorted positions ahead of the row it copies a walk of the
/// sorted order prefetches: far enough to hide a cache miss, near
/// enough that the line is still cached when its row's turn comes.
const AHEAD: usize = 16;

/// How rows get their sort key: packed into a machine word when the
/// key columns fit one, else kept beside as per-row tuples.
enum Keys {
    Packed {
        spec: PackedKeySpec,
        scratch: KeyScratch,
    },
    /// The wide keys of the buffered rows, in arrival order, while they
    /// are sorted.
    General(Vec<Key>),
}

/// How an element of the order holds its row's place: in the low
/// `page_bits + row_bits` bits of its last word, page above row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Places {
    /// Words an element takes: 1 for a word, 2 for an entry.
    stride: usize,
    page_bits: u32,
    row_bits: u32,
}

impl Places {
    /// An entry's place word: page and row, 32 bits each.
    const ENTRY: Places = Places {
        stride: 2,
        page_bits: 32,
        row_bits: 32,
    };

    /// Word places over `pages`: as many bits as the page count and the
    /// fullest page need.
    fn words(pages: &[Arc<Page>]) -> Self {
        let bits = |count: usize| usize::BITS - count.saturating_sub(1).leading_zeros();
        let rows = pages.iter().map(|p| p.rows()).max().unwrap_or(0);
        Places {
            stride: 1,
            page_bits: bits(pages.len()),
            row_bits: bits(rows),
        }
    }

    /// Bits the place takes at the bottom of a word.
    fn bits(self) -> u32 {
        self.page_bits + self.row_bits
    }

    fn encode(self, page: usize, row: usize) -> u64 {
        (page as u64) << self.row_bits | row as u64
    }

    fn decode(self, word: u64) -> (usize, usize) {
        let mask = |bits: u32| (1u64 << bits) - 1;
        let page = (word >> self.row_bits) & mask(self.page_bits);
        (page as usize, (word & mask(self.row_bits)) as usize)
    }
}

/// The radix sort's digits, least significant first: each one's shift
/// in an element's key (its first word), 8 bits wide, and how often
/// each of its values occurs, counted as the order is built.
struct Digits(Vec<(u32, [usize; 256])>);

impl Digits {
    fn new(shifts: impl Iterator<Item = u32>) -> Self {
        Digits(shifts.map(|shift| (shift, [0; 256])).collect())
    }

    fn count(&mut self, key: u64) {
        for (shift, count) in &mut self.0 {
            count[(key >> *shift) as u8 as usize] += 1;
        }
    }
}

/// Sorts the first half of `items`, elements of `S` words, by key and
/// returns where in `items` the sorted elements are: a stable LSD radix
/// sort, one counted digit per pass, least significant first. A digit
/// whose values all fall in one bucket is skipped (its pass would move
/// nothing). The passes scatter between the two halves of `items`, so
/// the result is its first or its second half.
fn radix_sort<const S: usize>(items: &mut [[u64; S]], digits: Digits) -> Range<usize> {
    let n = items.len() / 2;
    let (mut from, mut to) = items.split_at_mut(n);
    let mut passes = 0;
    for (shift, mut slots) in digits.0 {
        if slots.contains(&n) {
            continue;
        }
        // Digit counts become each digit's first output slot.
        let mut at = 0;
        for slot in slots.iter_mut() {
            at += std::mem::replace(slot, at);
        }
        for &item in from.iter() {
            let slot = &mut slots[(item[0] >> shift) as u8 as usize];
            to[*slot] = item;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
        passes += 1;
    }
    match passes % 2 {
        0 => 0..n,
        _ => n..2 * n,
    }
}

/// [`Order::try_for_each_row`] over `sorted`, the order's sorted
/// elements of `S` words, the last holding the place, prefetching the
/// row `AHEAD` positions on (see the module docs).
fn rows_in_order<'a, const S: usize>(
    sorted: &[[u64; S]],
    places: Places,
    pages: &'a [Arc<Page>],
    range: Range<usize>,
    mut f: impl FnMut(&'a [u8]) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    for at in range {
        if let Some(ahead) = sorted.get(at + AHEAD) {
            let (page, row) = places.decode(ahead[S - 1]);
            pages[page].prefetch_row(row);
        }
        let (page, row) = places.decode(sorted[at][S - 1]);
        f(raw_row(&pages[page], row))?;
    }
    Ok(())
}

/// What the sort orders: one element per buffered row (see the module
/// docs, "The order"), and where the sorted ones are once sorted.
struct Order {
    words: Vec<u64>,
    /// The sorted elements, counted in elements.
    sorted: Range<usize>,
    places: Places,
}

impl Order {
    /// Builds the order of the rows of `pages` by their packed keys and
    /// sorts it: one word a row when the keys' spread and the place fit
    /// in 64 bits, else an entry a row.
    fn sort_packed(&mut self, pages: &[Arc<Page>], spec: &PackedKeySpec, scratch: &mut KeyScratch) {
        let words = &mut self.words;
        let (mut min, mut max, mut differing) = (u64::MAX, 0, 0);
        for page in pages {
            let start = words.len();
            spec.extend_keys(page, scratch, words);
            let Some(&first) = words.first() else {
                continue;
            };
            for &key in &words[start..] {
                min = min.min(key);
                max = max.max(key);
                differing |= key ^ first;
            }
        }
        let n = words.len();
        if n == 0 {
            self.sorted = 0..0;
            return;
        }
        let tz = differing.trailing_zeros().min(63);
        let key_bits = u64::BITS - ((max - min) >> tz).leading_zeros();
        let places = Places::words(pages);
        let loc_bits = places.bits();
        if loc_bits < 64 && key_bits <= 64 - loc_bits {
            let shifts = (loc_bits..loc_bits + key_bits).step_by(8);
            let mut digits = Digits::new(shifts);
            let mut unplaced = words.iter_mut();
            for (page, p) in pages.iter().enumerate() {
                for (row, word) in (0..p.rows()).zip(&mut unplaced) {
                    *word = ((*word - min) >> tz) << loc_bits | places.encode(page, row);
                    digits.count(*word);
                }
            }
            words.resize(2 * n, 0);
            self.sorted = radix_sort::<1>(words.as_chunks_mut().0, digits);
            self.places = places;
        } else {
            let shifts = (0..64).step_by(8);
            let mut digits = Digits::new(shifts.filter(|&s| (differing >> s) & 0xFF != 0));
            words.reserve_exact(3 * n);
            words.resize(4 * n, 0);
            // Spread each key into its entry from the last row back, so
            // no key is overwritten before it is read.
            let mut at = n;
            for (page, p) in pages.iter().enumerate().rev() {
                for row in (0..p.rows()).rev() {
                    at -= 1;
                    let key = words[at];
                    words[2 * at] = key;
                    words[2 * at + 1] = Places::ENTRY.encode(page, row);
                    digits.count(key);
                }
            }
            self.sorted = radix_sort::<2>(words.as_chunks_mut().0, digits);
            self.places = Places::ENTRY;
        }
    }

    /// Builds the order of the rows of `pages` as compared entries and
    /// sorts it by `keys`, which it fills and empties.
    fn sort_general(&mut self, pages: &[Arc<Page>], keys: &mut Vec<Key>, key_cols: &[usize]) {
        for (page, p) in pages.iter().enumerate() {
            for (row, tuple) in p.tuples().enumerate() {
                let arrival = keys.len() as u64;
                keys.push(key_of(&tuple, key_cols));
                self.words
                    .extend([arrival, Places::ENTRY.encode(page, row)]);
            }
        }
        let entries = self.words.as_chunks_mut::<2>().0;
        entries.sort_by(|a, b| keys[a[0] as usize].cmp(&keys[b[0] as usize]));
        self.sorted = 0..keys.len();
        self.places = Places::ENTRY;
        keys.clear();
    }

    /// How many rows are sorted.
    fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Hands `f` the rows at positions `range` of key order, in order,
    /// each one sliced out of its page of `pages`.
    fn try_for_each_row<'a>(
        &self,
        pages: &'a [Arc<Page>],
        range: Range<usize>,
        f: impl FnMut(&'a [u8]) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let (places, sorted) = (self.places, self.sorted.clone());
        match places.stride {
            1 => rows_in_order::<1>(&self.words.as_chunks().0[sorted], places, pages, range, f),
            _ => rows_in_order::<2>(&self.words.as_chunks().0[sorted], places, pages, range, f),
        }
    }

    /// Empties the order; it keeps its capacity for the next batch.
    fn clear(&mut self) {
        self.words.clear();
        self.sorted = 0..0;
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
    /// The columns the sort carries of its input ...
    carry: Carry,
    /// ... as rows of this schema, the rows it buffers, spills and emits.
    schema: Arc<Schema>,
    /// The input's unnarrowed row width, which sizes the output pages
    /// and the emission batches.
    width: usize,
    /// Buffered input pages (rows are emitted from here by reference).
    pages: Vec<Arc<Page>>,
    /// Rows on the buffered pages.
    buffered: usize,
    /// What the sort orders, built when it sorts.
    order: Order,
    keys: Keys,
    /// `None` until the input has ended and again once every row has
    /// left.
    emit: Option<Emit>,
    emit_batch_rows: usize,
    spill: QueryResources,
    /// Pages in the frame of the stream a run is written through.
    run_frame: usize,
    /// Bytes currently granted for the buffered pages.
    granted: usize,
    /// Sorted runs spilled so far, in arrival (chronological) order.
    runs: Vec<SpillFile>,
}

impl SortKernel {
    /// Creates a sort over pages of `schema`, erring when a key column
    /// is out of range. `spill` is the query's context, its memory account
    /// and spill directory; [`QueryResources::default`] reproduces the fully
    /// in-memory behaviour.
    pub fn new(
        schema: Arc<Schema>,
        keys: Vec<usize>,
        cost: OpCost,
        spill: QueryResources,
    ) -> Result<Self, ExecError> {
        let width = schema.row_width();
        Self::carrying(Carry::all(&schema), keys, cost, spill, width)
    }

    /// A sort that keeps only the columns `carry` names of its input,
    /// keyed by `keys` of the kept rows, with its output pages and
    /// emission batches sized for input rows `width` bytes wide.
    pub(crate) fn carrying(
        carry: Carry,
        keys: Vec<usize>,
        cost: OpCost,
        spill: QueryResources,
        width: usize,
    ) -> Result<Self, ExecError> {
        let schema = carry.schema().clone();
        for &k in &keys {
            if k >= schema.len() {
                return Err(crate::plan::column_range_error("sort key", k, &schema));
            }
        }
        let keys_state = match PackedKeySpec::try_new(&schema, &keys) {
            Some(spec) => Keys::Packed {
                spec,
                scratch: KeyScratch::default(),
            },
            None => Keys::General(Vec::new()),
        };
        Ok(Self {
            key_cols: keys,
            cost,
            emit_batch_rows: (EMIT_BYTES / width).max(1),
            carry,
            schema,
            width,
            pages: Vec::new(),
            buffered: 0,
            order: Order {
                words: Vec::new(),
                sorted: 0..0,
                places: Places::ENTRY,
            },
            keys: keys_state,
            emit: None,
            run_frame: spill.frame_pages(1),
            spill,
            granted: 0,
            runs: Vec::new(),
        })
    }

    /// Builds the order over the buffered pages, in arrival order, and
    /// sorts it by key (stable: equal keys keep arrival order, matching
    /// the reference executor). The order is reserved to the batch's
    /// size — twice it for the radix passes — not grown by doubling:
    /// beside the pages it is what the sort holds at its peak.
    fn sort_rows(&mut self) {
        let order = &mut self.order;
        order.clear();
        order.words.reserve_exact(2 * self.buffered);
        match &mut self.keys {
            Keys::Packed { spec, scratch } => order.sort_packed(&self.pages, spec, scratch),
            Keys::General(keys) => order.sort_general(&self.pages, keys, &self.key_cols),
        }
    }

    /// Drops the buffered pages and returns their grant; the order
    /// keeps its capacity for the next batch.
    fn free_buffered(&mut self) {
        self.pages.clear();
        self.buffered = 0;
        self.order.clear();
        self.spill.broker.release(self.granted);
        self.granted = 0;
    }

    /// Sorts the buffered batch, writes it out as one run, and frees
    /// its memory. Returns the number of rows spilled.
    fn spill_run(&mut self) -> Result<usize, ExecError> {
        let rows = self.buffered;
        if rows == 0 {
            return Ok(0);
        }
        self.sort_rows();
        let io = self.spill.io(OP);
        let mut run = io.create(self.schema.clone(), self.run_frame)?;
        let sorted = 0..self.order.len();
        let push = |raw| io.push(&mut run, raw);
        self.order.try_for_each_row(&self.pages, sorted, push)?;
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
        vec![("", Some(self.carry.input().clone()))]
    }

    /// Buffers one page — the columns it carries of it.
    fn on_page(
        &mut self,
        _: usize,
        page: &Arc<Page>,
        _: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        let page = &self.carry.apply(page);
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
        self.buffered += page.rows();
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
            let cost = self.cost.input_cost(self.buffered);
            (cost, Source::Buffered { next: 0 })
        } else {
            let (cost, merge) = self.begin_merge()?;
            (cost, Source::Runs(merge))
        };
        self.emit = Some(Emit {
            builder: page_builder(self.schema.clone(), self.width),
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
                let sorted = self.order.len();
                let end = (*next + self.emit_batch_rows).min(sorted);
                self.order
                    .try_for_each_row(&self.pages, *next..end, |raw| {
                        emit_row(builder, out, raw);
                        Ok(())
                    })?;
                *next = end;
                (1, end == sorted)
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
    General(Key),
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
    fn load_next(&mut self, keys: &mut Keys, spill: &QueryResources) -> Result<(), ExecError> {
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
        spill: &QueryResources,
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
        spill: &QueryResources,
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
    use cordoba_storage::{DataType, Field, NumCell, Value};

    fn sort_of(schema: &Arc<Schema>, keys: Vec<usize>, spill: QueryResources) -> SortKernel {
        SortKernel::new(schema.clone(), keys, OpCost::default(), spill).expect("valid sort keys")
    }

    fn run_sort_with(
        rows: Vec<Vec<Value>>,
        schema: Arc<Schema>,
        keys: Vec<usize>,
        spill: QueryResources,
    ) -> Vec<Vec<Value>> {
        let pages = pages_of(&schema, &rows);
        drive(&mut sort_of(&schema, keys, spill), &[&pages]).expect("sort must not fault")
    }

    fn run_sort(rows: Vec<Vec<Value>>, schema: Arc<Schema>, keys: Vec<usize>) -> Vec<Vec<Value>> {
        run_sort_with(rows, schema, keys, QueryResources::default())
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
    fn prefetched_emission_keeps_the_stable_order_at_every_boundary() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let batch = sort_of(&schema, vec![0], QueryResources::default()).emit_batch_rows;
        let per_page = PAGE_SIZE / schema.row_width();
        for n in [
            0,
            1,
            AHEAD - 1,
            AHEAD,
            AHEAD + 1,
            batch - 1,
            batch,
            batch + 1,
            3 * batch + per_page / 2,
        ] {
            let mut want: Vec<(i64, i64)> = (0..n as i64).map(|i| ((i * 7919) % 13, i)).collect();
            let rows = want
                .iter()
                .map(|&(k, seq)| vec![Value::Int(k), Value::Int(seq)])
                .collect();
            want.sort_by_key(|&(k, _)| k);
            let got: Vec<(i64, i64)> = run_sort(rows, schema.clone(), vec![0])
                .iter()
                .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
                .collect();
            assert_eq!(got, want, "{n} rows");
        }
    }

    #[test]
    fn out_of_range_key_errors_at_construction() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let err = SortKernel::new(
            schema,
            vec![7],
            OpCost::default(),
            QueryResources::default(),
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
        let spill = QueryResources::with_budget(4 * PAGE_SIZE);
        let broker = spill.broker.clone();
        let got = run_sort_with(rows, schema, vec![0], spill);
        assert!(broker.peak() > 0, "broker must have tracked memory");
        assert_eq!(broker.used(), 0, "all grants released at completion");
        assert_eq!(got, want, "spilled sort must equal in-memory stable sort");
    }

    /// Takes `rows` into a sort keyed by column 0 and ends its input:
    /// the form of its order and the bytes the order holds then, and the
    /// rows it emits.
    fn order_bytes_and_rows(
        schema: &Arc<Schema>,
        rows: &[Vec<Value>],
    ) -> (Places, usize, Vec<Vec<Value>>) {
        let pages = pages_of(schema, rows);
        let mut sort = sort_of(schema, vec![0], QueryResources::default());
        let mut out = Pages::new();
        for page in &pages {
            sort.on_page(0, page, &mut out).expect("intake");
        }
        sort.on_close(0, &mut out).expect("sorts");
        let held = sort.order.words.capacity() * std::mem::size_of::<u64>();
        let places = sort.order.places;
        while !sort.drain(&mut out).expect("emits").last {}
        (places, held, crate::wiring::page_rows(&out))
    }

    #[test]
    fn a_fitting_key_orders_one_word_a_row() {
        // 5 000 rows of (date, seq) over 15 pages, dates spanning seven
        // years: the spread and the place fit one word.
        let schema = Schema::new(vec![
            Field::new("d", DataType::Date),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..5000)
            .map(|i| {
                let day = cordoba_storage::Date(8000 + (i * 7919 % 2500) as i32);
                vec![Value::Date(day), Value::Int(i)]
            })
            .collect();
        assert!(pages_of(&schema, &rows).len() > 8);
        let (places, bytes, got) = order_bytes_and_rows(&schema, &rows);
        assert_eq!(places.stride, 1);
        let n = rows.len();
        assert!(bytes <= 16 * n, "{bytes} B for {n} rows");
        let mut want = rows;
        want.sort_by_key(|r| r[0].as_date().expect("date").0);
        assert_eq!(got, want);
    }

    #[test]
    fn a_key_too_wide_for_the_place_orders_entries_stably() {
        // Int keys over the whole range, five rows each, scattered: no
        // room for the place, so the order keeps each key beside it.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..5000i64)
            .map(|i| {
                let k = (i * 7919 % 1000).wrapping_mul(0x2545_F491_4F6C_DD1D);
                vec![Value::Int(k), Value::Int(i)]
            })
            .collect();
        let (places, bytes, got) = order_bytes_and_rows(&schema, &rows);
        assert_eq!(places, Places::ENTRY);
        let n = rows.len();
        assert!(bytes <= 32 * n, "{bytes} B for {n} rows");
        let mut want = rows;
        want.sort_by_key(|r| r[0].as_int().expect("int"));
        assert_eq!(got, want);
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
        let got = run_sort_with(
            rows,
            schema,
            vec![0],
            QueryResources::with_budget(PAGE_SIZE),
        );
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
        let mut sort = sort_of(&schema, vec![0], QueryResources::default());
        let io = sort.spill.io(OP);
        for run in runs {
            let mut stream = io.create(schema.clone(), 1).expect("create run");
            for (k, seq) in run {
                let raw = [k.to_cell(), seq.to_cell()].concat();
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
    fn tiny_budget_spills_wide_float_keys_through_entries() {
        // Fifty float keys of both signs span all 64 bits of the packed
        // key, so every batch orders entries. A one-page budget makes
        // one-page runs, merged two at a time in cascades, and the keys
        // tie across every run boundary.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Float),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..4000i64)
            .map(|i| {
                vec![
                    Value::Float((i * 7919 % 50 - 25) as f64 * 0.75),
                    Value::Int(i),
                ]
            })
            .collect();
        let want = run_sort(rows.clone(), schema.clone(), vec![0]);
        let spill = QueryResources::with_budget(PAGE_SIZE);
        let broker = spill.broker.clone();
        let mut sort = sort_of(&schema, vec![0], spill);
        let got = drive(&mut sort, &[&pages_of(&schema, &rows)]).expect("spills");
        assert_eq!(sort.order.places, Places::ENTRY, "the last run's order");
        assert_eq!(got, want);
        assert!(
            broker.spilled() > 2 * 4000 * 16,
            "the runs were merged in cascades: {} B spilled",
            broker.spilled()
        );
        assert_eq!(broker.used(), 0);
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
            QueryResources::with_budget(2 * PAGE_SIZE),
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
        let sort = sort_of(&sort_schema, vec![0], QueryResources::default());
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
        let mut spill = QueryResources::with_budget(PAGE_SIZE);
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

    /// `(k, pad, seq, x)` rows, 40 B wide: `k` in `0..keys` scattered,
    /// `seq` the arrival number.
    fn wide_rows(n: i64, keys: i64) -> (Arc<Schema>, Vec<Vec<Value>>) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("pad", DataType::Str(16)),
            Field::new("seq", DataType::Int),
            Field::new("x", DataType::Float),
        ]);
        let rows = (0..n)
            .map(|i| {
                let pad = Value::Str(format!("p{}", i % 7));
                vec![
                    Value::Int(i * 7919 % keys),
                    pad,
                    Value::Int(i),
                    Value::Float(0.5),
                ]
            })
            .collect();
        (schema, rows)
    }

    /// A sort of `schema` pages keyed by column 0 that carries columns 0
    /// and 2 alone, its pages sized for the whole row.
    fn narrow_sort(schema: &Arc<Schema>, spill: QueryResources) -> SortKernel {
        let carry = Carry::new(schema, vec![0, 2]).expect("in range");
        let width = schema.row_width();
        SortKernel::carrying(carry, vec![0], OpCost::default(), spill, width).expect("valid")
    }

    /// The rows of every page each `drain` call emits, call by call.
    fn emissions(sort: &mut SortKernel, pages: &[Arc<Page>]) -> Vec<Vec<usize>> {
        let mut out = Pages::new();
        for page in pages {
            sort.on_page(0, page, &mut out).expect("intake");
        }
        sort.on_close(0, &mut out).expect("sorts");
        let mut calls = Vec::new();
        loop {
            let mut out = Pages::new();
            let last = sort.drain(&mut out).expect("emits").last;
            if last {
                return calls;
            }
            calls.push(out.iter().map(|p| p.rows()).collect());
        }
    }

    #[test]
    fn a_narrowed_sort_emits_the_pages_and_batches_of_its_whole_rows() {
        // 16 B carried of 40 B rows: each emission call and each page
        // holds what it would at 40 B, over a batch boundary and a tail.
        let (schema, rows) = wide_rows(3000, 50);
        let pages = pages_of(&schema, &rows);
        let whole = emissions(
            &mut sort_of(&schema, vec![0], QueryResources::default()),
            &pages,
        );
        let narrow = emissions(&mut narrow_sort(&schema, QueryResources::default()), &pages);
        assert_eq!(narrow, whole);
        assert!(whole.len() > 2, "{whole:?}");
        let per_page = PAGE_SIZE / schema.row_width();
        assert!(whole.iter().flatten().any(|&rows| rows == per_page));
    }

    #[test]
    fn a_narrowed_sort_spills_cascades_and_keeps_the_stable_order() {
        // 160 KiB of input carried as 64 KiB under a one-page budget:
        // one-page runs, merged two at a time in cascades. Fifty keys
        // over 4 000 rows tie across every run boundary.
        let (schema, rows) = wide_rows(4000, 50);
        let mut want: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[2].as_int().unwrap()))
            .collect();
        want.sort_by_key(|&(k, _)| k);
        let spill = QueryResources::with_budget(PAGE_SIZE);
        let broker = spill.broker.clone();
        let mut sort = narrow_sort(&schema, spill);
        let got = drive(&mut sort, &[&pages_of(&schema, &rows)]).expect("spills");
        let got: Vec<(i64, i64)> = got
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(got, want);
        let carried = 4000 * 16;
        assert!(
            broker.spilled() > 2 * carried,
            "the runs were merged in cascades: {} B spilled",
            broker.spilled()
        );
        assert_eq!(broker.used(), 0);
    }

    #[test]
    fn spilled_sort_peak_stays_near_budget() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = (0..20_000).rev().map(|v| vec![Value::Int(v)]).collect();
        // ~156 KiB of input against a 32 KiB budget (≥ 4× over).
        let budget = 8 * PAGE_SIZE;
        let spill = QueryResources::with_budget(budget);
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
