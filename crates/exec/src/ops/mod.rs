//! Operators and their shared machinery (fan-out, key encoding).
//!
//! Every operator — scan, filter, project, aggregate, sort, hash join,
//! merge join, nested-loop join and sink — is a [`Kernel`]: state plus
//! a page function that one task, the [`OperatorShell`], runs behind
//! the page-exchange protocol (see [`shell`]), reading and delivering
//! through the one channel layer ([`port`]) on either substrate. So is
//! every task of a morsel group: its workers
//! (`parallel::MorselKernel`) and its merge.

pub mod aggregate;
pub mod filter;
pub mod hash_join;
pub mod merge_join;
pub mod nlj;
pub mod port;
pub mod project;
pub mod scan;
pub mod shell;
pub mod sink;
pub mod sort;
pub mod sort_key;

#[cfg(test)]
mod join_properties;
#[cfg(test)]
pub(crate) mod testutil;

pub use aggregate::AggregateKernel;
pub use filter::FilterKernel;
pub use hash_join::{BuildTable, HashJoinKernel};
pub use merge_join::MergeJoinKernel;
pub use nlj::NljKernel;
pub use port::{Handoff, Inlet, Outlet};
pub use project::ProjectKernel;
pub use scan::ScanKernel;
pub use shell::{Kernel, OperatorShell, Pages};
pub use sink::SinkKernel;
pub use sort::SortKernel;
pub use sort_key::{KeyScratch, PackedKeySpec};

use cordoba_sim::{TaskCtx, VTime};
use cordoba_storage::{DataType, Page, Schema, TupleRef};
use std::sync::Arc;

/// Delivers produced pages to one or more consumers, charging the
/// operator's per-consumer output cost (`s`) for each delivery.
///
/// This is the serialization point the paper analyzes: a pivot shared by
/// `M` queries delivers every page `M` times, paying `M · s` per tuple
/// of forward progress, all in a single thread of control — whether
/// its consumers run in the same run loop or on threads of their own
/// ([`Outlet`]).
pub struct Fanout {
    outs: Vec<Outlet>,
    /// What is mid-delivery, and the first consumer not yet served.
    pending: Option<(Delivery, usize)>,
    out_per_tuple: f64,
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
        }
    }

    /// A fan-out nobody listens to: a sink's, or a root operator's in a
    /// drain benchmark.
    pub fn none() -> Self {
        Self::new(Vec::new(), 0.0)
    }

    /// Whether every consumer is an OS link found hung up, so nothing
    /// delivered from now on is read: the producer should stop. A
    /// fan-out with no consumers, or with a simulator channel among
    /// them, is never unheard.
    #[inline]
    pub fn is_unheard(&self) -> bool {
        !self.outs.is_empty() && self.outs.iter().all(Outlet::is_hung_up)
    }

    /// Whether a page is mid-delivery (some consumers not yet served).
    pub fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Begins delivering `page` to all consumers.
    ///
    /// # Panics
    ///
    /// Panics if a delivery is already pending — callers must pump to
    /// completion first.
    pub fn begin(&mut self, page: Arc<Page>) {
        self.start(Delivery::Page(page));
    }

    /// Begins telling all consumers that the producer's morsel `index`
    /// has ended, at no cost; panics as [`Fanout::begin`] does.
    fn begin_morsel_end(&mut self, index: usize) {
        self.start(Delivery::MorselEnd(index));
    }

    fn start(&mut self, what: Delivery) {
        assert!(self.pending.is_none(), "fanout already has a pending page");
        self.pending = Some((what, 0));
    }

    /// Continues the pending delivery. Returns the cost accrued this
    /// call and whether delivery completed (`false` = blocked on a full
    /// consumer queue; the task should return [`cordoba_sim::Step::blocked`]).
    pub fn pump(&mut self, ctx: &mut TaskCtx<'_>) -> (VTime, bool) {
        let Some((what, mut next)) = self.pending.take() else {
            return (0, true);
        };
        let charge = match &what {
            Delivery::Page(page) => (self.out_per_tuple * page.rows() as f64).round() as VTime,
            Delivery::MorselEnd(_) => 0,
        };
        let mut cost = 0;
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
        (cost, true)
    }

    /// Closes all consumer channels (end of stream).
    pub fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        for out in &mut self.outs {
            out.close(ctx);
        }
    }

    /// Discards a mid-delivery page (query abort): consumers already
    /// served keep it, the rest never see it.
    pub fn abandon(&mut self) {
        self.pending = None;
    }
}

/// An ordered queue of produced pages awaiting fan-out delivery.
///
/// Operators that can emit several pages from one step (projections that
/// widen rows, joins, aggregate emission) push here and flush; pages are
/// delivered in order, and a blocked consumer pauses the queue without
/// reordering.
pub struct Outbox {
    queue: std::collections::VecDeque<Arc<Page>>,
    /// The morsel the queued pages end, told after them.
    morsel_end: Option<usize>,
    fanout: Fanout,
}

impl Outbox {
    /// Wraps a fan-out in an ordered outbox.
    pub fn new(fanout: Fanout) -> Self {
        Self {
            queue: std::collections::VecDeque::new(),
            morsel_end: None,
            fanout,
        }
    }

    /// Queues a page for delivery.
    pub fn push(&mut self, page: Arc<Page>) {
        self.queue.push_back(page);
    }

    /// Queues every page of `pages`, in order, leaving it empty. A lone
    /// page with nothing ahead of it — a scan's, most filters' — goes
    /// straight to the fan-out, sparing the hot path the queue.
    pub fn extend(&mut self, pages: &mut Vec<Arc<Page>>) {
        match pages.pop() {
            Some(page) if pages.is_empty() && self.is_drained() => self.fanout.begin(page),
            last => {
                self.queue.extend(pages.drain(..));
                self.queue.extend(last);
            }
        }
    }

    /// Queues the end of the producer's morsel `index`, told to the
    /// consumers once the pages queued before it are delivered.
    pub fn end_morsel(&mut self, index: usize) {
        self.morsel_end = Some(index);
    }

    /// Whether all queued pages have been fully delivered.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.morsel_end.is_none() && !self.fanout.is_pending()
    }

    /// Delivers as much as possible; returns accrued cost and whether
    /// the outbox fully drained (`false` = blocked on a consumer).
    pub fn flush(&mut self, ctx: &mut TaskCtx<'_>) -> (VTime, bool) {
        let mut cost = 0;
        loop {
            let (c, done) = self.fanout.pump(ctx);
            cost += c;
            if !done {
                return (cost, false);
            }
            if let Some(page) = self.queue.pop_front() {
                self.fanout.begin(page);
            } else if let Some(index) = self.morsel_end.take() {
                self.fanout.begin_morsel_end(index);
            } else {
                return (cost, true);
            }
        }
    }

    /// Whether nobody reads the fan-out any more
    /// ([`Fanout::is_unheard`]).
    #[inline]
    pub fn is_unheard(&self) -> bool {
        self.fanout.is_unheard()
    }

    /// Closes all consumer channels.
    pub fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        debug_assert!(
            self.is_drained(),
            "closing an outbox with undelivered pages"
        );
        self.fanout.close(ctx);
    }

    /// Discards every undelivered page (query abort) so the outbox can
    /// close without delivering stale results downstream.
    pub fn abandon(&mut self) {
        self.queue.clear();
        self.morsel_end = None;
        self.fanout.abandon();
    }
}

/// A totally ordered key component for grouping and sorting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeyVal {
    /// Integer key.
    Int(i64),
    /// Float key under IEEE total order.
    Float(TotalF64),
    /// Date key (day number).
    Date(i32),
    /// String key.
    Str(String),
}

/// `f64` wrapper ordered by `total_cmp` so it can key `BTreeMap`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalF64(pub f64);
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Validates that `col` is an `Int` column of `schema` — the join-key
/// contract shared by the hash and merge joins.
pub(crate) fn int_key(
    what: &str,
    schema: &Arc<Schema>,
    col: usize,
) -> Result<(), crate::error::ExecError> {
    let dtype = schema
        .fields()
        .get(col)
        .map(|f| f.dtype)
        .ok_or_else(|| crate::plan::column_range_error(what, col, schema))?;
    if dtype != DataType::Int {
        return Err(crate::error::ExecError::plan(format!(
            "{what} key column {col} must be Int, got {dtype:?}"
        )));
    }
    Ok(())
}

/// Extracts the `cols` of a tuple as an ordered key.
pub fn key_of(tuple: &TupleRef<'_>, cols: &[usize]) -> Vec<KeyVal> {
    cols.iter()
        .map(|&i| match tuple.schema().fields()[i].dtype {
            DataType::Int => KeyVal::Int(tuple.get_int(i)),
            DataType::Float => KeyVal::Float(TotalF64(tuple.get_float(i))),
            DataType::Date => KeyVal::Date(tuple.get_date(i).0),
            DataType::Str(_) => KeyVal::Str(tuple.get_str(i).to_string()),
        })
        .collect()
}

/// Encodes a [`KeyVal`] back into raw row bytes for its field type.
pub fn encode_keyval(out: &mut Vec<u8>, key: &KeyVal, dtype: DataType) {
    match (key, dtype) {
        (KeyVal::Int(v), DataType::Int) => out.extend_from_slice(&v.to_le_bytes()),
        (KeyVal::Float(v), DataType::Float) => out.extend_from_slice(&v.0.to_le_bytes()),
        (KeyVal::Date(v), DataType::Date) => out.extend_from_slice(&v.to_le_bytes()),
        (KeyVal::Str(s), DataType::Str(n)) => {
            out.extend_from_slice(s.as_bytes());
            out.extend(std::iter::repeat_n(b' ', n - s.len()));
        }
        // lint: allow(group keys are derived from the schema they encode back into)
        (k, d) => panic!("key {k:?} does not match field type {d:?}"),
    }
}

/// Type-default row bytes for a schema (0 / 0.0 / epoch / spaces) —
/// the fill for unmatched LEFT OUTER probe rows.
pub fn default_row_bytes(schema: &Arc<Schema>) -> Vec<u8> {
    let mut out = Vec::with_capacity(schema.row_width());
    for f in schema.fields() {
        match f.dtype {
            DataType::Int => out.extend_from_slice(&0i64.to_le_bytes()),
            DataType::Float => out.extend_from_slice(&0f64.to_le_bytes()),
            DataType::Date => out.extend_from_slice(&0i32.to_le_bytes()),
            DataType::Str(n) => out.extend(std::iter::repeat_n(b' ', n)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::{Field, PageBuilder, Value};

    #[test]
    fn total_f64_orders_nan_consistently() {
        let mut v = [
            TotalF64(f64::NAN),
            TotalF64(1.0),
            TotalF64(-1.0),
            TotalF64(0.0),
        ];
        v.sort();
        assert_eq!(v[0].0, -1.0);
        assert_eq!(v[1].0, 0.0);
        assert_eq!(v[2].0, 1.0);
        assert!(v[3].0.is_nan());
    }

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
            key,
            vec![
                KeyVal::Int(9),
                KeyVal::Float(TotalF64(1.5)),
                KeyVal::Str("ab".into())
            ]
        );
        // Encode back and compare to the original raw row.
        let mut bytes = Vec::new();
        for (k, f) in key.iter().zip(schema.fields()) {
            encode_keyval(&mut bytes, k, f.dtype);
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
        let bytes = default_row_bytes(&schema);
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
    fn keyvals_sort_lexicographically() {
        let a = vec![KeyVal::Str("A".into()), KeyVal::Str("F".into())];
        let b = vec![KeyVal::Str("A".into()), KeyVal::Str("O".into())];
        let c = vec![KeyVal::Str("N".into()), KeyVal::Str("F".into())];
        let mut v = vec![c.clone(), b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }
}
