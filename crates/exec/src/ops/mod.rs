//! Operators and their shared machinery (fan-out, group and sort keys).
//!
//! Every operator — scan, filter, project, aggregate, sort, hash join,
//! merge join, nested-loop join and sink — is a [`Kernel`]: state plus
//! a page function that one task, the [`OperatorShell`], runs behind
//! the page-exchange protocol, reading and delivering through the one
//! channel layer ([`Inlet`] / [`Outlet`]) on either substrate. So is
//! every task of a morsel group: its workers
//! (`parallel::MorselKernel`) and its merge.

pub(crate) mod aggregate;
mod filter;
mod hash_join;
mod merge_join;
mod nlj;
pub(crate) mod port;
mod project;
mod scan;
pub(crate) mod shell;
mod sink;
mod sort;
mod sort_key;

#[cfg(test)]
mod join_properties;
#[cfg(test)]
pub(crate) mod testutil;

pub use aggregate::AggregateKernel;
pub use filter::FilterKernel;
pub use hash_join::{BuildTable, HashJoinKernel, MatchIter};
pub(crate) use merge_join::MergeJoinKernel;
pub use nlj::NljKernel;
pub use port::{Inlet, Outlet};
pub use project::ProjectKernel;
pub use scan::ScanKernel;
pub use shell::{Drained, Kernel, OperatorShell, PageWork, Pages, PortClosed};
pub use sink::SinkKernel;
pub use sort::SortKernel;

use crate::error::ExecError;
use crate::plan::column_range_error;
use cordoba_sim::{TaskCtx, VTime};
use cordoba_storage::{CellError, DataType, Page, PageBuilder, Schema, TupleRef, Value, PAGE_SIZE};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Delivers produced pages, in order, to one or more consumers,
/// charging the operator's per-consumer output cost (`s`) for each
/// delivery.
///
/// This is the serialization point the paper analyzes: a pivot shared by
/// `M` queries delivers every page `M` times, paying `M · s` per tuple
/// of forward progress, all in a single thread of control — whether
/// its consumers run in the same run loop or on threads of their own
/// ([`Outlet`]). A kernel call may emit several pages (projections that
/// widen rows, joins, aggregate emission); they queue behind the one
/// in delivery, and a full consumer pauses the queue without
/// reordering it.
pub struct Fanout {
    outs: Vec<Outlet>,
    /// What is mid-delivery, and the first consumer not yet served.
    pending: Option<(Delivery, usize)>,
    out_per_tuple: f64,
    /// Pages waiting behind `pending`.
    queue: VecDeque<Arc<Page>>,
    /// The morsel the queued pages end, told after them.
    morsel_end: Option<usize>,
}

/// What a fan-out delivers: a page, or the end of the producer's
/// morsel with this index ([`Outlet::end_morsel`]).
enum Delivery {
    Page(Arc<Page>),
    MorselEnd(usize),
}

impl Fanout {
    /// Creates a fan-out over the given consumers.
    pub fn new(outs: Vec<Outlet>, out_per_tuple: f64) -> Self {
        Self {
            outs,
            pending: None,
            out_per_tuple,
            queue: VecDeque::new(),
            morsel_end: None,
        }
    }

    /// A fan-out nobody listens to: a sink's, or a root operator's in a
    /// drain benchmark.
    pub fn none() -> Self {
        Self::new(Vec::new(), 0.0)
    }

    /// Whether every consumer is a morsel group's OS link found hung up,
    /// so nothing delivered from now on is read: the worker should stop.
    /// A fan-out with no consumers, or with a simulator channel among
    /// them, is never unheard.
    #[inline]
    pub(crate) fn is_unheard(&self) -> bool {
        !self.outs.is_empty() && self.outs.iter().all(Outlet::is_hung_up)
    }

    /// Queues every page of `pages`, in order, leaving it empty. A lone
    /// page with nothing ahead of it — a scan's, most filters' — goes
    /// straight to delivery, sparing the hot path the queue.
    pub fn extend(&mut self, pages: &mut Vec<Arc<Page>>) {
        match pages.pop() {
            Some(page) if pages.is_empty() && self.is_drained() => {
                self.pending = Some((Delivery::Page(page), 0));
            }
            last => {
                self.queue.extend(pages.drain(..));
                self.queue.extend(last);
            }
        }
    }

    /// Queues the end of the producer's morsel `index`, told to the
    /// consumers once the pages queued before it are delivered.
    fn end_morsel(&mut self, index: usize) {
        self.morsel_end = Some(index);
    }

    fn is_drained(&self) -> bool {
        self.pending.is_none() && self.queue.is_empty() && self.morsel_end.is_none()
    }

    /// Delivers as much as possible, each page to every consumer in
    /// turn. Returns the cost accrued and whether everything queued was
    /// delivered (`false` = blocked on a full consumer queue; the task
    /// should return [`cordoba_sim::Step::blocked`]).
    pub fn flush(&mut self, ctx: &mut TaskCtx<'_>) -> (VTime, bool) {
        let mut cost = 0;
        loop {
            let (what, mut next) = if let Some(pending) = self.pending.take() {
                pending
            } else if let Some(page) = self.queue.pop_front() {
                (Delivery::Page(page), 0)
            } else if let Some(index) = self.morsel_end.take() {
                (Delivery::MorselEnd(index), 0)
            } else {
                return (cost, true);
            };
            let charge = match &what {
                Delivery::Page(page) => (self.out_per_tuple * page.rows() as f64).round() as VTime,
                Delivery::MorselEnd(_) => 0,
            };
            while next < self.outs.len() {
                let out = &mut self.outs[next];
                let delivered = match &what {
                    Delivery::Page(page) => out.send(page.clone(), ctx).is_ok(),
                    Delivery::MorselEnd(index) => out.end_morsel(*index, ctx),
                };
                if !delivered {
                    self.pending = Some((what, next));
                    return (cost, false);
                }
                cost += charge;
                next += 1;
            }
        }
    }

    /// Closes all consumer channels (end of stream).
    pub fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        debug_assert!(
            self.is_drained(),
            "closing a fan-out with undelivered pages"
        );
        for out in &mut self.outs {
            out.close(ctx);
        }
    }

    /// Discards everything undelivered (query abort): consumers already
    /// served a page keep it, the rest never see it.
    fn abandon(&mut self) {
        self.pending = None;
        self.queue.clear();
        self.morsel_end = None;
    }
}

/// A group or sort key: its cells compared in turn by
/// [`Value::total_cmp`], a key before its extensions. A newtype only so
/// that a key can key a `BTreeMap`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Key(pub(crate) Vec<Value>);

impl Key {
    /// The order of two rows of cells: the first cells that differ
    /// under [`Value::total_cmp`], else the shorter row first.
    pub(crate) fn order(a: &[Value], b: &[Value]) -> Ordering {
        let first_difference = a
            .iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne());
        first_difference.unwrap_or_else(|| a.len().cmp(&b.len()))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        Key::order(&self.0, &other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Key {}

/// The columns a narrowing operator (a sort, either side of a hash
/// join) keeps of its input's rows: those at `cols`, ascending, of
/// pages of `input`, as rows of `schema`. Keeping every column costs
/// nothing: [`Carry::apply`] hands the page on as it came.
#[derive(Debug, Clone)]
pub(crate) struct Carry {
    input: Arc<Schema>,
    cols: Vec<usize>,
    schema: Arc<Schema>,
    /// The byte ranges of an input row the kept columns occupy,
    /// adjacent ones merged.
    spans: Vec<Range<usize>>,
}

impl Carry {
    /// Every column of `input`.
    pub(crate) fn all(input: &Arc<Schema>) -> Self {
        let width = input.row_width();
        Carry {
            input: input.clone(),
            cols: (0..input.len()).collect(),
            schema: input.clone(),
            spans: std::iter::once(0..width).collect(),
        }
    }

    /// The columns `cols` (ascending) of `input`, erring when there are
    /// none or one is out of range.
    pub(crate) fn new(input: &Arc<Schema>, cols: Vec<usize>) -> Result<Self, ExecError> {
        if cols.iter().copied().eq(0..input.len()) {
            return Ok(Carry::all(input));
        }
        if cols.is_empty() {
            return Err(ExecError::plan("an operator carries a column at least"));
        }
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut fields = Vec::with_capacity(cols.len());
        for &col in &cols {
            let field = input.fields().get(col);
            let field = field.ok_or_else(|| column_range_error("carried", col, input))?;
            let start = input.offset(col);
            let end = start + field.dtype.width();
            match spans.last_mut() {
                Some(last) if last.end == start => last.end = end,
                _ => spans.push(start..end),
            }
            fields.push(field.clone());
        }
        Ok(Carry {
            input: input.clone(),
            cols,
            schema: Schema::new(fields),
            spans,
        })
    }

    /// The schema of the pages the operator reads.
    pub(crate) fn input(&self) -> &Arc<Schema> {
        &self.input
    }

    /// The schema of the rows it keeps.
    pub(crate) fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Where input column `col` sits in a kept row, if it is kept.
    pub(crate) fn position(&self, col: usize) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }

    /// The kept columns of `page`: the page itself when they are all of
    /// it, else a compacted copy.
    pub(crate) fn apply(&self, page: &Arc<Page>) -> Arc<Page> {
        if Arc::ptr_eq(&self.schema, &self.input) {
            return page.clone();
        }
        page.compact(self.schema.clone(), &self.spans)
    }
}

/// A builder for pages of `schema` rows that each hold as many rows as
/// a [`PAGE_SIZE`] page of `width`-byte rows. A narrowing operator's
/// pages hold as many rows as its unnarrowed ones would, so page
/// counts — and with them every step and virtual-time charge — do not
/// depend on which columns it carries.
pub(crate) fn page_builder(schema: Arc<Schema>, width: usize) -> PageBuilder {
    let rows = PAGE_SIZE / width;
    let page_size = rows * schema.row_width();
    PageBuilder::with_page_size(schema, page_size)
}

/// Validates that `col` is an `Int` column of `schema` — the join-key
/// contract shared by the hash and merge joins.
fn int_key(what: &str, schema: &Arc<Schema>, col: usize) -> Result<(), ExecError> {
    let dtype = schema
        .fields()
        .get(col)
        .map(|f| f.dtype)
        .ok_or_else(|| column_range_error(what, col, schema))?;
    if dtype != DataType::Int {
        return Err(ExecError::plan(format!(
            "{what} key column {col} must be Int, got {dtype:?}"
        )));
    }
    Ok(())
}

/// Extracts the `cols` of a tuple as an ordered key.
pub(crate) fn key_of(tuple: &TupleRef<'_>, cols: &[usize]) -> Key {
    Key(cols.iter().map(|&i| tuple.get_value(i)).collect())
}

/// A row of `schema`'s [`Value::zero`] cells: the build side a
/// left-outer join's unmatched probe row carries.
pub(crate) fn zero_row(schema: &Schema) -> Result<Vec<u8>, CellError> {
    let mut row = Vec::with_capacity(schema.row_width());
    for f in schema.fields() {
        Value::zero(f.dtype).encode(f.dtype, &mut row)?;
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::{Field, PageBuilder, Value};

    #[test]
    fn key_extraction_and_encoding_round_trip() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str(4)),
        ]);
        let mut b = PageBuilder::new(schema.clone());
        b.push_row(&[Value::Int(9), Value::Float(1.5), Value::Str("ab".into())]);
        let page = b.finish();
        let key = key_of(&page.tuple(0), &[0, 1, 2]);
        assert_eq!(
            key.0,
            vec![Value::Int(9), Value::Float(1.5), Value::Str("ab".into())]
        );
        // Encode back and compare to the original raw row.
        let mut bytes = Vec::new();
        for (k, f) in key.0.iter().zip(schema.fields()) {
            k.encode(f.dtype, &mut bytes)
                .expect("a key fits its own field");
        }
        assert_eq!(bytes.as_slice(), page.tuple(0).raw());
    }

    #[test]
    fn default_row_matches_schema_width() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("d", DataType::Date),
            Field::new("s", DataType::Str(7)),
        ]);
        let bytes = zero_row(&schema).expect("zeros fit");
        assert_eq!(bytes.len(), schema.row_width());
        // Reading the default row yields the type defaults.
        let mut b = PageBuilder::new(schema);
        assert!(b.push_raw(&bytes));
        let page = b.finish();
        let t = page.tuple(0);
        assert_eq!(t.get_int(0), 0);
        assert_eq!(t.get_date(1).0, 0);
        assert_eq!(t.get_str(2), "");
    }

    #[test]
    fn a_lone_page_queues_behind_a_blocked_delivery() {
        use cordoba_sim::channel::{self, Recv};
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let page = |x| {
            let mut b = PageBuilder::new(schema.clone());
            b.push_row(&[Value::Int(x)]);
            b.finish()
        };
        let (tx, rx) = channel::bounded(1);
        let mut fanout = Fanout::new(vec![tx.into()], 1.0);
        // Only the first lone page goes straight to delivery; the other
        // two queue behind it in order.
        for x in [1, 2, 3] {
            fanout.extend(&mut vec![page(x)]);
        }
        let mut detached = cordoba_sim::DetachedCtx::new();
        let mut read = Vec::new();
        // A page costs 1 to deliver; each flush fills the one slot.
        for done in [false, false, true] {
            assert_eq!(fanout.flush(&mut detached.ctx(0)), (1, done));
            match rx.try_recv(&mut detached.ctx(1)) {
                Recv::Value(page) => read.push(page.tuple(0).get_int(0)),
                other => panic!("expected a page, got {other:?}"),
            }
        }
        assert_eq!(read, [1, 2, 3]);
    }

    #[test]
    fn keyvals_sort_lexicographically() {
        let key = |cells: &[&str]| Key(cells.iter().map(|&s| Value::from(s)).collect());
        let (a, b, c) = (key(&["A", "F"]), key(&["A", "O"]), key(&["N", "F"]));
        // A key sorts before its extensions.
        let (short, long) = (key(&["A"]), key(&["A", "", ""]));
        let mut v = vec![c.clone(), long.clone(), b.clone(), a.clone(), short.clone()];
        v.sort();
        assert_eq!(v, vec![short, long, a, b, c]);
    }
}
