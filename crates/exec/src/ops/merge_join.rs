//! Streaming inner merge join over two key-sorted inputs.
//!
//! Unlike the hash join, neither input is materialized: the kernel
//! buffers just enough of each side to assemble the current equal-key
//! groups, emits their cross product, and discards them — the
//! fully-pipelinable merge phase of the paper's Section 5.3.2
//! merge-join decomposition (the blocking sorts are separate upstream
//! operators).
//!
//! A side buffers the pages it is handed — the producer's `Arc<Page>`s,
//! not copies — with their join keys, gathered once per page with
//! [`Page::gather_i64`], behind a row cursor; a row's bytes are copied
//! once, into the joined row. The shell reads the two ports
//! interleaved, as [`Kernel::next_port`] answers: the side whose
//! buffer is empty, otherwise the side whose last buffered key is
//! smaller — the side the merge is starved on.
//!
//! The sorted-ascending input contract is checked on the gathered
//! column. A violation does **not** abort the process: the kernel
//! returns a typed [`ExecError::UnsortedMergeInput`] and the shell
//! fails the query — the simulator (and every other query in it) keeps
//! running.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::ops::int_key;
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port, PortClosed};
use cordoba_storage::{Page, PageBuilder, Schema};
use std::collections::VecDeque;
use std::sync::Arc;

/// One input of the merge: the pages it has buffered and where the
/// merge stands in them.
#[derive(Default)]
struct Side {
    /// Buffered pages, oldest first; the front page's rows before `pos`
    /// are consumed.
    pages: VecDeque<Arc<Page>>,
    pos: usize,
    /// The keys of the rows not yet consumed, in order.
    keys: VecDeque<i64>,
    closed: bool,
    /// The last key this side delivered: the next may not be smaller.
    last_key: Option<i64>,
}

impl Side {
    /// Buffers `page`, whose `keys` must continue ascending.
    fn push(
        &mut self,
        page: &Arc<Page>,
        keys: &[i64],
        side: &'static str,
    ) -> Result<(), ExecError> {
        // Each key against the one before it, the first against the
        // previous page's last.
        let prevs = self.last_key.iter().chain(keys);
        let keys_after = keys.iter().skip(usize::from(self.last_key.is_none()));
        if let Some((&prev, &key)) = prevs.zip(keys_after).find(|(prev, key)| key < prev) {
            return Err(ExecError::UnsortedMergeInput { side, prev, key });
        }
        self.last_key = keys.last().copied().or(self.last_key);
        self.pages.push_back(page.clone());
        self.keys.extend(keys);
        Ok(())
    }

    /// The length of the run of `key` under the cursor, once it is
    /// complete: a larger key follows it, or the side has ended.
    fn group(&self, key: i64) -> Option<usize> {
        let len = self.keys.partition_point(|&k| k == key);
        (len < self.keys.len() || self.closed).then_some(len)
    }

    /// The first `n` rows from the cursor on, as raw bytes.
    fn rows(&self, n: usize) -> impl Iterator<Item = &[u8]> {
        let mut pages = self.pages.iter();
        let first = pages.next().map(|page| page.raw_rows().skip(self.pos));
        let rest = pages.flat_map(|page| page.raw_rows());
        first.into_iter().flatten().chain(rest).take(n)
    }

    /// Moves the cursor `n` rows on, dropping the pages it passes.
    fn consume(&mut self, n: usize) {
        self.keys.drain(..n);
        self.pos += n;
        while let Some(page) = self.pages.front().filter(|page| page.rows() <= self.pos) {
            self.pos -= page.rows();
            self.pages.pop_front();
        }
    }
}

/// Merge-join kernel: port 0 is the left input, port 1 the right.
pub struct MergeJoinKernel {
    /// Each side's schema and key column.
    inputs: [(Arc<Schema>, usize); 2],
    sides: [Side; 2],
    cost: OpCost,
    builder: PageBuilder,
    /// Reused gathered-key buffer (one gather per page).
    keys: Vec<i64>,
}

impl MergeJoinKernel {
    /// Creates a merge join of `left` and `right` on their `Int`
    /// columns `left_key` and `right_key`; `out_schema` must be
    /// left ++ right. Errs when a key column is out of range or not
    /// `Int`.
    pub fn new(
        left: Arc<Schema>,
        right: Arc<Schema>,
        left_key: usize,
        right_key: usize,
        out_schema: Arc<Schema>,
        cost: OpCost,
    ) -> Result<Self, ExecError> {
        int_key("merge join left", &left, left_key)?;
        int_key("merge join right", &right, right_key)?;
        Ok(Self {
            inputs: [(left, left_key), (right, right_key)],
            sides: Default::default(),
            cost,
            builder: PageBuilder::new(out_schema),
            keys: Vec::new(),
        })
    }

    /// Merges as far as the buffered rows allow, emitting full pages.
    fn merge(&mut self, out: &mut Pages) {
        let [left, right] = &mut self.sides;
        while let (Some(&lk), Some(&rk)) = (left.keys.front(), right.keys.front()) {
            if lk < rk {
                left.consume(left.keys.partition_point(|&k| k < rk));
            } else if rk < lk {
                right.consume(right.keys.partition_point(|&k| k < lk));
            } else {
                let (Some(ln), Some(rn)) = (left.group(lk), right.group(rk)) else {
                    return; // a group may go on in pages not yet seen
                };
                for l in left.rows(ln) {
                    for r in right.rows(rn) {
                        if !self.builder.push_raw_parts(l, r) {
                            out.push(self.builder.finish_and_reset());
                            assert!(self.builder.push_raw_parts(l, r));
                        }
                    }
                }
                left.consume(ln);
                right.consume(rn);
            }
        }
        if left.closed && left.keys.is_empty() || right.closed && right.keys.is_empty() {
            // One side has ended: nothing further can match.
            left.consume(left.keys.len());
            right.consume(right.keys.len());
        }
    }
}

impl Kernel for MergeJoinKernel {
    fn name(&self) -> &'static str {
        "merge join"
    }

    fn ports(&self) -> Vec<Port> {
        let names = ["left input", "right input"];
        let schemas = self.inputs.iter().map(|(schema, _)| Some(schema.clone()));
        names.into_iter().zip(schemas).collect()
    }

    /// The side whose buffer is empty, otherwise the side whose last
    /// buffered key is smaller; a side that has ended gives way.
    fn next_port(&self, open: &[bool]) -> usize {
        let [left, right] = &self.sides;
        let starved = match (left.keys.back(), right.keys.back()) {
            (Some(l), Some(r)) => usize::from(r < l),
            (l, _) => usize::from(l.is_some()),
        };
        // The other side when that one has ended.
        starved ^ usize::from(!open[starved])
    }

    fn on_page(
        &mut self,
        port: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        page.gather_i64(self.inputs[port].1, &mut self.keys);
        self.sides[port].push(page, &self.keys, ["left", "right"][port])?;
        self.merge(out);
        Ok(PageWork {
            cost: self.cost.input_cost(page.rows()),
            progress: page.rows(),
        })
    }

    fn on_close(&mut self, port: usize, out: &mut Pages) -> Result<PortClosed, ExecError> {
        self.sides[port].closed = true;
        self.merge(out);
        Ok(PortClosed::default())
    }

    /// The partly filled tail page, if any.
    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        if !self.builder.is_empty() {
            out.push(self.builder.finish_and_reset());
        }
        Ok(Drained::LAST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FaultCell;
    use crate::ops::testutil::{pages_of, run_shell};
    use crate::plan::concat_schemas;
    use cordoba_storage::{DataType, Field, TableBuilder, Value};

    /// A two-column (`{name}k`, `{name}v`) Int schema.
    fn kv_schema(name: &str) -> Arc<Schema> {
        Schema::new(vec![
            Field::new(format!("{name}k"), DataType::Int),
            Field::new(format!("{name}v"), DataType::Int),
        ])
    }

    /// `rows` on 64-byte pages: four 16-byte rows a page.
    fn kv_pages(schema: &Arc<Schema>, rows: &[(i64, i64)]) -> Vec<Arc<Page>> {
        let mut tb = TableBuilder::with_page_size("t", schema.clone(), 64);
        for (k, v) in rows {
            tb.push_row(&[Value::Int(*k), Value::Int(*v)]);
        }
        tb.finish().pages().to_vec()
    }

    /// Runs `inputs` (left, right) through a merge join on column 0
    /// behind the shell; a failed query is its fault.
    fn try_join(
        (ls, rs): (Arc<Schema>, Arc<Schema>),
        inputs: Vec<Vec<Arc<Page>>>,
    ) -> Result<Vec<Vec<Value>>, ExecError> {
        let out_schema = concat_schemas(&ls, &rs);
        let kernel =
            MergeJoinKernel::new(ls, rs, 0, 0, out_schema, OpCost::default()).expect("valid keys");
        let fault = FaultCell::default();
        let rows = run_shell(Box::new(kernel), inputs, &fault);
        fault.take().map_or(Ok(rows), Err)
    }

    fn try_run_merge(
        left: Vec<(i64, i64)>,
        right: Vec<(i64, i64)>,
    ) -> Result<Vec<Vec<Value>>, ExecError> {
        let (ls, rs) = (kv_schema("l"), kv_schema("r"));
        let inputs = vec![kv_pages(&ls, &left), kv_pages(&rs, &right)];
        try_join((ls, rs), inputs)
    }

    fn run_merge(left: Vec<(i64, i64)>, right: Vec<(i64, i64)>) -> Vec<Vec<Value>> {
        try_run_merge(left, right).expect("sorted inputs")
    }

    #[test]
    fn basic_sorted_merge() {
        let got = run_merge(
            vec![(1, 10), (3, 30), (5, 50)],
            vec![(1, 100), (2, 200), (5, 500)],
        );
        assert_eq!(
            got,
            vec![
                vec![
                    Value::Int(1),
                    Value::Int(10),
                    Value::Int(1),
                    Value::Int(100)
                ],
                vec![
                    Value::Int(5),
                    Value::Int(50),
                    Value::Int(5),
                    Value::Int(500)
                ],
            ]
        );
    }

    #[test]
    fn duplicate_keys_cross_product() {
        let got = run_merge(vec![(2, 1), (2, 2)], vec![(2, 10), (2, 20), (2, 30)]);
        assert_eq!(got.len(), 6);
        // All pairs present exactly once.
        let mut pairs: Vec<(i64, i64)> = got
            .iter()
            .map(|r| (r[1].as_int().unwrap(), r[3].as_int().unwrap()))
            .collect();
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![(1, 10), (1, 20), (1, 30), (2, 10), (2, 20), (2, 30)]
        );
    }

    #[test]
    fn groups_spanning_page_boundaries() {
        // 4 rows per page (64-byte pages, 16-byte rows): a key group of
        // 12 spans pages; the join must wait for the full group.
        let left: Vec<(i64, i64)> = (0..12).map(|i| (7, i)).chain([(9, 99)]).collect();
        let right = vec![(7, 1000), (9, 900)];
        let got = run_merge(left, right);
        assert_eq!(got.len(), 13);
    }

    #[test]
    fn disjoint_keys_produce_nothing() {
        let got = run_merge(vec![(1, 1), (3, 3)], vec![(2, 2), (4, 4)]);
        assert!(got.is_empty());
    }

    #[test]
    fn empty_sides() {
        assert!(run_merge(vec![], vec![(1, 1)]).is_empty());
        assert!(run_merge(vec![(1, 1)], vec![]).is_empty());
        assert!(run_merge(vec![], vec![]).is_empty());
    }

    #[test]
    fn one_side_much_longer() {
        let left: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let right = vec![(50, 1), (99, 2)];
        let got = run_merge(left, right);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0][0], Value::Int(50));
        assert_eq!(got[1][0], Value::Int(99));
    }

    #[test]
    fn unsorted_input_fails_query_with_typed_error() {
        // In-page violation on the left side.
        let err = try_run_merge(vec![(3, 1), (1, 2)], vec![(1, 1)]).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnsortedMergeInput {
                side: "left",
                prev: 3,
                key: 1
            }
        );
        // Cross-page violation on the right side (4 rows per 64-byte
        // page): the bad key leads its page, so the check spans pages.
        let right: Vec<(i64, i64)> = (0..8).map(|i| (10 + i, i)).chain([(2, 99)]).collect();
        let err = try_run_merge(vec![(1, 1)], right).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnsortedMergeInput {
                side: "right",
                prev: 17,
                key: 2
            }
        );
    }

    #[test]
    fn a_foreign_page_on_either_side_is_a_typed_mismatch() {
        // A Float key of the same row width on the left (the key gather
        // would panic) and a wider row on the right (the joined rows
        // would be cut at the wrong bytes): each fails the query with
        // the shell's typed fault, naming its side.
        let (ls, rs) = (kv_schema("l"), kv_schema("r"));
        let float_key = Schema::new(vec![
            Field::new("lk", DataType::Float),
            Field::new("lv", DataType::Int),
        ]);
        let wide = Schema::new(vec![
            Field::new("rk", DataType::Int),
            Field::new("rv", DataType::Int),
            Field::new("rw", DataType::Int),
        ]);
        let left = pages_of(&float_key, &[vec![Value::Float(1.0), Value::Int(1)]]);
        let right = pages_of(&wide, &[vec![Value::Int(1); 3]]);
        for (inputs, want) in [
            (
                vec![left, kv_pages(&rs, &[(1, 1)])],
                "left input: expected 2 columns / 16 B rows, got 2 columns / 16 B rows",
            ),
            (
                vec![kv_pages(&ls, &[(1, 1)]), right],
                "right input: expected 2 columns / 16 B rows, got 3 columns / 24 B rows",
            ),
        ] {
            let err = try_join((ls.clone(), rs.clone()), inputs).unwrap_err();
            assert_eq!(
                err,
                ExecError::InputPageMismatch {
                    op: "merge join",
                    detail: want.into()
                }
            );
        }
    }

    #[test]
    fn non_int_key_errors_at_construction() {
        let ls = Schema::new(vec![Field::new("lk", DataType::Float)]);
        let rs = Schema::new(vec![Field::new("rk", DataType::Int)]);
        let out = concat_schemas(&ls, &rs);
        let err = MergeJoinKernel::new(ls, rs, 0, 0, out, OpCost::default())
            .err()
            .expect("constructor must reject");
        assert!(err.to_string().contains("must be Int"), "{err}");
    }
}
