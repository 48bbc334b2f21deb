//! Fixed-width row pages (default 4 KiB), the unit of data flow in the
//! engine: operators consume and produce whole pages, which the paper's
//! Section 3.2 credits with better instruction/data locality and lower
//! producer-consumer synchronization cost.

use crate::schema::{DataType, Schema};
use crate::value::{read_cell, trim_padding, NumCell, Value};
use crate::Date;
use std::ops::Range;
use std::sync::Arc;

/// Default page size in bytes, as in the paper ("typical size of 4K").
pub const PAGE_SIZE: usize = 4096;

/// An immutable page of fixed-width rows.
#[derive(Debug, Clone)]
pub struct Page {
    schema: Arc<Schema>,
    data: Box<[u8]>,
    rows: usize,
}

impl Page {
    /// Reconstructs a page from a raw payload of exactly
    /// `rows * row_width` bytes — the path back from a spill file.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `rows * row_width` bytes.
    pub(crate) fn from_payload(schema: Arc<Schema>, data: Box<[u8]>, rows: usize) -> Arc<Page> {
        assert_eq!(
            data.len(),
            rows * schema.row_width(),
            "payload length must equal rows * row_width"
        );
        Arc::new(Page { schema, data, rows })
    }

    /// The page's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows stored.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A cursor over row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn tuple(&self, row: usize) -> TupleRef<'_> {
        assert!(
            row < self.rows,
            "row {row} out of range ({} rows)",
            self.rows
        );
        self.tuple_unchecked(row)
    }

    /// Internal unchecked cursor: `row` is trusted to be in range (all
    /// bases `0..rows` are valid by construction, so iteration skips
    /// the public API's per-row assert).
    #[inline]
    fn tuple_unchecked(&self, row: usize) -> TupleRef<'_> {
        TupleRef {
            page: self,
            base: row * self.schema.row_width(),
        }
    }

    /// Iterates over all tuples in the page (one range check for the
    /// whole page, not one assert per row).
    pub fn tuples(&self) -> impl Iterator<Item = TupleRef<'_>> {
        (0..self.rows).map(move |r| self.tuple_unchecked(r))
    }

    /// Payload bytes in use (diagnostics / memory accounting).
    pub fn byte_len(&self) -> usize {
        self.rows * self.schema.row_width()
    }

    /// The page's full payload: `rows * row_width` contiguous bytes.
    /// Bulk consumers (the hash-join arena) copy this in one shot
    /// instead of row by row.
    pub fn payload(&self) -> &[u8] {
        &self.data[..self.rows * self.schema.row_width()]
    }

    /// Hints the CPU to start loading row `row` into cache — its first
    /// and last byte, so a row straddling two cache lines arrives whole
    /// — for a caller that will read it a few rows from now (the sort's
    /// emission gathers rows in key order, not page order). A hint
    /// only: nothing is read, a row out of range is ignored, and on
    /// targets other than x86_64 it does nothing.
    #[inline]
    pub fn prefetch_row(&self, row: usize) {
        #[cfg(target_arch = "x86_64")]
        if row < self.rows {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let w = self.schema.row_width();
            let bytes = &self.data[row * w..][..w];
            for byte in [bytes.first(), bytes.last()].into_iter().flatten() {
                // SAFETY: `_mm_prefetch` needs SSE, which every x86_64
                // target has; `byte` borrows a live byte of the payload,
                // and a prefetch neither reads nor writes memory.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(byte).cast()) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = row;
    }

    /// The page's rows cut to the byte ranges `spans` of each row, laid
    /// end to end in that order, as a page of `schema`: the columns an
    /// operator keeps of its input when its consumers read only some.
    ///
    /// # Panics
    ///
    /// Panics if a span lies outside a row or the spans do not add up
    /// to `schema`'s row width.
    pub fn compact(&self, schema: Arc<Schema>, spans: &[Range<usize>]) -> Arc<Page> {
        let width = schema.row_width();
        assert_eq!(spans.iter().map(Range::len).sum::<usize>(), width);
        let mut data = vec![0; self.rows * width].into_boxed_slice();
        let mut at = 0;
        // A span at a time down the rows, the common column widths as
        // fixed-size copies rather than a `memcpy` call per row.
        for span in spans {
            let into = data
                .chunks_exact_mut(width)
                .map(|row| &mut row[at..][..span.len()]);
            let from = self.raw_rows().map(|row| &row[span.clone()]);
            match span.len() {
                4 => copy_fixed::<4>(into, from),
                8 => copy_fixed::<8>(into, from),
                12 => copy_fixed::<12>(into, from),
                16 => copy_fixed::<16>(into, from),
                _ => into
                    .zip(from)
                    .for_each(|(to, from)| to.copy_from_slice(from)),
            }
            at += span.len();
        }
        Page::from_payload(schema, data, self.rows)
    }

    /// Iterates over raw row byte slices (each exactly `row_width`
    /// long) — the allocation-free way to walk encoded rows.
    pub fn raw_rows(&self) -> impl Iterator<Item = &[u8]> {
        self.payload().chunks_exact(self.schema.row_width())
    }

    /// Gathers an `Int` column into `out` (cleared first): one schema
    /// lookup and one bounds proof per page, unchecked per-row loads.
    ///
    /// # Panics
    ///
    /// Panics if field `col` is not `Int`.
    pub fn gather_i64(&self, col: usize, out: &mut Vec<i64>) {
        self.gather(col, out);
    }

    /// Gathers a `Float` column into `out` (cleared first); see
    /// [`Page::gather_i64`].
    ///
    /// # Panics
    ///
    /// Panics if field `col` is not `Float`.
    pub fn gather_f64(&self, col: usize, out: &mut Vec<f64>) {
        self.gather(col, out);
    }

    /// Gathers a `Date` column (day numbers) into `out` (cleared
    /// first); see [`Page::gather_i64`].
    ///
    /// # Panics
    ///
    /// Panics if field `col` is not `Date`.
    pub fn gather_date(&self, col: usize, out: &mut Vec<i32>) {
        self.gather(col, out);
    }

    /// The one gather loop: column `col`'s cells into `out` (cleared
    /// first), asserting the field is a `T::DTYPE`.
    fn gather<T: NumCell<N>, const N: usize>(&self, col: usize, out: &mut Vec<T>) {
        let (off, w) = self.field(col, T::DTYPE);
        // The bounds proof for the unchecked reads: the cell ends inside
        // its row (off + N <= w) and every row lies inside the payload
        // (rows * w <= data.len()), so for each r < rows the read spans
        // r*w + off .. r*w + off + N <= (r+1)*w <= rows*w <= data.len().
        assert!(off + N <= w && self.rows * w <= self.data.len());
        out.clear();
        out.reserve(self.rows);
        for r in 0..self.rows {
            debug_assert!(
                r * w + off + N <= self.data.len(),
                "gather row out of bounds"
            );
            // SAFETY: in bounds by the proof above (re-checked per row by
            // the debug_assert! in debug and Miri builds); read_unaligned
            // has no alignment requirement and a byte array has no
            // invalid bit patterns.
            let cell = unsafe {
                std::ptr::read_unaligned(self.data.as_ptr().add(r * w + off).cast::<[u8; N]>())
            };
            out.push(T::from_cell(cell));
        }
    }

    /// A reader of column `col`'s cells by row, each a checked read of
    /// the payload in place.
    ///
    /// # Panics
    ///
    /// Panics if field `col` is not a `T::DTYPE`, and the reader if its
    /// row is out of range.
    pub fn cells<T: NumCell<N>, const N: usize>(&self, col: usize) -> impl Fn(usize) -> T + '_ {
        let (off, w) = self.field(col, T::DTYPE);
        let data = self.payload();
        move |row| T::from_cell(read_cell(data, row * w + off))
    }

    /// A reader of the `Str(width)` column `col`'s contents by row: the
    /// cell's bytes in place, without their padding.
    ///
    /// # Panics
    ///
    /// Panics if field `col` is not a `Str(width)`, and the reader if
    /// its row is out of range.
    pub fn str_cells<'a>(&'a self, col: usize, width: usize) -> impl Fn(usize) -> &'a [u8] + 'a {
        let (off, w) = self.field(col, DataType::Str(width));
        let data = self.payload();
        move |row| {
            let at = row * w + off;
            trim_padding(&data[at..at + width])
        }
    }

    /// The one check a typed read of column `col` makes per page: the
    /// field is a `want`, so a page of another schema fails here instead
    /// of reading another column's bytes. Returns `(field offset, row
    /// width)`.
    fn field(&self, col: usize, want: DataType) -> (usize, usize) {
        let dtype = self.schema.fields()[col].dtype;
        assert_eq!(dtype, want, "type mismatch on field {col}");
        (self.schema.offset(col), self.schema.row_width())
    }

    /// Copies the rows selected by `sel` (ascending row indices) into a
    /// layout-compatible builder, stopping when the builder fills.
    /// Returns how many selected rows were copied; consecutive indices
    /// coalesce into single bulk copies.
    ///
    /// # Panics
    ///
    /// Panics if a selected index is out of range.
    pub fn copy_rows_into(&self, sel: &[u32], builder: &mut PageBuilder) -> usize {
        debug_assert_eq!(
            self.schema.row_width(),
            builder.schema.row_width(),
            "copy_rows_into requires layout-compatible schemas"
        );
        let w = self.schema.row_width();
        let payload = self.payload();
        let fit = builder.remaining().min(sel.len());
        let mut taken = 0;
        while taken < fit {
            let start = sel[taken] as usize;
            let mut len = 1;
            while taken + len < fit && sel[taken + len] as usize == start + len {
                len += 1;
            }
            builder
                .data
                .extend_from_slice(&payload[start * w..(start + len) * w]);
            taken += len;
        }
        builder.rows += taken;
        taken
    }
}

/// Copies each `from` slice into its `into` slice, both `N` bytes long
/// (as [`Page::compact`] cuts them: a pair of any other length is left
/// as it is).
fn copy_fixed<'a, const N: usize>(
    into: impl Iterator<Item = &'a mut [u8]>,
    from: impl Iterator<Item = &'a [u8]>,
) {
    for (to, from) in into.zip(from) {
        if let (Ok(to), Ok(from)) = (<&mut [u8; N]>::try_from(to), <&[u8; N]>::try_from(from)) {
            *to = *from;
        }
    }
}

/// Borrowed view of one row, with typed O(1) field accessors.
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    page: &'a Page,
    base: usize,
}

impl<'a> TupleRef<'a> {
    /// Schema of the underlying page.
    #[inline]
    pub fn schema(&self) -> &'a Arc<Schema> {
        &self.page.schema
    }

    /// Reads field `idx`'s cell, a `T`.
    #[inline]
    fn cell<T: NumCell<N>, const N: usize>(&self, idx: usize) -> T {
        debug_assert_eq!(self.page.schema.fields()[idx].dtype, T::DTYPE);
        T::from_cell(read_cell(
            &self.page.data,
            self.base + self.page.schema.offset(idx),
        ))
    }

    /// Reads an `Int` field.
    #[inline]
    pub fn get_int(&self, idx: usize) -> i64 {
        self.cell(idx)
    }

    /// Reads a `Float` field.
    #[inline]
    pub fn get_float(&self, idx: usize) -> f64 {
        self.cell(idx)
    }

    /// Reads a `Date` field.
    #[inline]
    pub fn get_date(&self, idx: usize) -> Date {
        Date(self.cell(idx))
    }

    /// Reads a `Str` field, without its space padding.
    #[inline]
    pub fn get_str(&self, idx: usize) -> &'a str {
        let schema = &self.page.schema;
        let at = self.base + schema.offset(idx);
        let cell = &self.page.data[at..at + schema.fields()[idx].dtype.width()];
        #[expect(
            clippy::expect_used,
            reason = "push_row checks every string is ASCII, so pages never hold non-UTF-8"
        )]
        std::str::from_utf8(trim_padding(cell)).expect("pages store only ASCII strings")
    }

    /// Reads any field as a dynamically-typed [`Value`].
    #[inline]
    pub fn get_value(&self, idx: usize) -> Value {
        match self.page.schema.fields()[idx].dtype {
            DataType::Int => Value::Int(self.get_int(idx)),
            DataType::Float => Value::Float(self.get_float(idx)),
            DataType::Date => Value::Date(self.get_date(idx)),
            DataType::Str(_) => Value::Str(self.get_str(idx).to_string()),
        }
    }

    /// Materializes the whole row (tests / result collection).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.page.schema.len())
            .map(|i| self.get_value(i))
            .collect()
    }

    /// This row's raw encoded bytes (exactly `row_width` long). Rows of
    /// layout-compatible schemas can be concatenated byte-wise, which is
    /// how joins assemble output rows without per-field decoding.
    #[inline]
    pub fn raw(&self) -> &'a [u8] {
        &self.page.data[self.base..self.base + self.page.schema.row_width()]
    }
}

/// Mutable page under construction.
#[derive(Debug)]
pub struct PageBuilder {
    schema: Arc<Schema>,
    data: Vec<u8>,
    rows: usize,
    capacity_rows: usize,
}

impl PageBuilder {
    /// Creates a builder for a page of the default [`PAGE_SIZE`].
    pub fn new(schema: Arc<Schema>) -> Self {
        Self::with_page_size(schema, PAGE_SIZE)
    }

    /// Creates a builder for a custom page size (the page-size ablation
    /// bench uses 1 KiB – 64 KiB).
    ///
    /// # Panics
    ///
    /// Panics if even one row does not fit.
    pub fn with_page_size(schema: Arc<Schema>, page_size: usize) -> Self {
        let capacity_rows = page_size / schema.row_width();
        assert!(
            capacity_rows > 0,
            "row width {} exceeds page size {page_size}",
            schema.row_width()
        );
        Self {
            data: Vec::with_capacity(capacity_rows * schema.row_width()),
            schema,
            rows: 0,
            capacity_rows,
        }
    }

    /// Rows that still fit.
    fn remaining(&self) -> usize {
        self.capacity_rows - self.rows
    }

    /// Whether the page is at capacity.
    pub fn is_full(&self) -> bool {
        self.rows == self.capacity_rows
    }

    /// Whether no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends a row of values, each cell encoded by [`Value::encode`].
    /// Returns `false` (without writing) if the page is full.
    ///
    /// # Panics
    ///
    /// Panics if the values do not match the schema (arity or types), or
    /// a string is not ASCII, holds a NUL byte or exceeds its field
    /// width.
    #[expect(
        clippy::panic,
        reason = "documented push_row contract: values must fit the schema"
    )]
    pub fn push_row(&mut self, values: &[Value]) -> bool {
        assert_eq!(values.len(), self.schema.len(), "arity mismatch");
        if self.is_full() {
            return false;
        }
        for (field, v) in self.schema.fields().iter().zip(values) {
            if let Err(err) = v.encode(field.dtype, &mut self.data) {
                panic!("field '{}': {err}", field.name);
            }
        }
        self.rows += 1;
        true
    }

    /// Appends a pre-encoded row. Returns `false` if full.
    pub fn push_raw(&mut self, row: &[u8]) -> bool {
        debug_assert_eq!(row.len(), self.schema.row_width());
        if self.is_full() {
            return false;
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        true
    }

    /// Appends a row assembled from two byte fragments (joins emit
    /// `probe ++ build` without an intermediate scratch buffer; either
    /// fragment may be empty). Returns `false` if full.
    pub fn push_raw_parts(&mut self, head: &[u8], tail: &[u8]) -> bool {
        debug_assert_eq!(head.len() + tail.len(), self.schema.row_width());
        if self.is_full() {
            return false;
        }
        self.data.extend_from_slice(head);
        self.data.extend_from_slice(tail);
        self.rows += 1;
        true
    }

    /// Appends all rows of `page` selected by `sel` (ascending row
    /// indices) with [`Page::copy_rows_into`], handing each page that
    /// fills on the way to `emit` — the repack step after a selection.
    /// A builder left full or partly filled is the caller's to flush.
    pub fn push_selected(&mut self, page: &Page, sel: &[u32], mut emit: impl FnMut(Arc<Page>)) {
        let mut taken = 0;
        while taken < sel.len() {
            if self.is_full() {
                emit(self.finish_and_reset());
            }
            taken += page.copy_rows_into(&sel[taken..], self);
        }
    }

    /// Freezes the builder into an immutable, shareable page.
    pub fn finish(self) -> Arc<Page> {
        Arc::new(Page {
            schema: self.schema,
            data: self.data.into_boxed_slice(),
            rows: self.rows,
        })
    }

    /// Freezes and resets, keeping the builder usable — the streaming
    /// operators' workhorse.
    pub fn finish_and_reset(&mut self) -> Arc<Page> {
        let data = std::mem::take(&mut self.data).into_boxed_slice();
        let page = Arc::new(Page {
            schema: self.schema.clone(),
            data,
            rows: self.rows,
        });
        self.rows = 0;
        self.data = Vec::with_capacity(self.capacity_rows * self.schema.row_width());
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("p", DataType::Float),
            Field::new("d", DataType::Date),
            Field::new("s", DataType::Str(6)),
        ])
    }

    #[test]
    fn write_read_round_trip() {
        let mut b = PageBuilder::new(schema());
        assert!(b.push_row(&[
            Value::Int(42),
            Value::Float(1.25),
            Value::Date(Date::from_ymd(1994, 1, 1)),
            Value::Str("RAIL".into()),
        ]));
        let page = b.finish();
        assert_eq!(page.rows(), 1);
        let t = page.tuple(0);
        assert_eq!(t.get_int(0), 42);
        assert_eq!(t.get_float(1), 1.25);
        assert_eq!(t.get_date(2), Date::from_ymd(1994, 1, 1));
        assert_eq!(t.get_str(3), "RAIL");
    }

    #[test]
    fn compact_keeps_the_spans_of_every_row_in_order() {
        // `s` (bytes 20..26) then `k` (0..8): columns reordered, `p` and
        // `d` dropped, across three rows.
        let mut b = PageBuilder::new(schema());
        for i in 0..3 {
            let s = Value::Str(format!("r{i}"));
            b.push_row(&[Value::Int(i), Value::Float(0.5), Value::Date(Date(7)), s]);
        }
        let kept = Schema::new(vec![
            Field::new("s", DataType::Str(6)),
            Field::new("k", DataType::Int),
        ]);
        let page = b.finish().compact(kept, &[20..26, 0..8]);
        let rows: Vec<Vec<Value>> = page.tuples().map(|t| t.to_values()).collect();
        let want = (0..3).map(|i| vec![Value::Str(format!("r{i}")), Value::Int(i)]);
        assert_eq!(rows, want.collect::<Vec<_>>());
    }

    #[test]
    fn capacity_matches_page_size() {
        let s = schema(); // row width = 8+8+4+6 = 26
        let b = PageBuilder::new(s.clone());
        assert_eq!(b.capacity_rows, PAGE_SIZE / 26);
        let small = PageBuilder::with_page_size(s, 52);
        assert_eq!(small.capacity_rows, 2);
    }

    #[test]
    fn full_page_rejects_rows() {
        let mut b = PageBuilder::with_page_size(schema(), 26);
        let row = [
            Value::Int(1),
            Value::Float(0.0),
            Value::Date(Date(0)),
            Value::Str("".into()),
        ];
        assert!(b.push_row(&row));
        assert!(b.is_full());
        assert!(!b.push_row(&row));
        assert_eq!(b.finish().rows(), 1);
    }

    #[test]
    fn finish_and_reset_streams_pages() {
        let mut b = PageBuilder::with_page_size(schema(), 52);
        let row = [
            Value::Int(9),
            Value::Float(1.0),
            Value::Date(Date(100)),
            Value::Str("AIR".into()),
        ];
        b.push_row(&row);
        b.push_row(&row);
        let p1 = b.finish_and_reset();
        assert_eq!(p1.rows(), 2);
        assert!(b.is_empty());
        b.push_row(&row);
        let p2 = b.finish_and_reset();
        assert_eq!(p2.rows(), 1);
        assert_eq!(p2.tuple(0).get_str(3), "AIR");
    }

    #[test]
    fn copy_into_preserves_bytes() {
        let mut b = PageBuilder::new(schema());
        b.push_row(&[
            Value::Int(7),
            Value::Float(3.5),
            Value::Date(Date(8035)),
            Value::Str("TRUCK".into()),
        ]);
        let page = b.finish();
        let mut b2 = PageBuilder::new(page.schema().clone());
        assert!(b2.push_raw(page.tuple(0).raw()));
        let copy = b2.finish();
        assert_eq!(copy.tuple(0).to_values(), page.tuple(0).to_values());
    }

    #[test]
    fn get_value_and_to_values() {
        let mut b = PageBuilder::new(schema());
        b.push_row(&[
            Value::Int(1),
            Value::Float(2.0),
            Value::Date(Date(3)),
            Value::Str("x".into()),
        ]);
        let page = b.finish();
        let vals = page.tuple(0).to_values();
        assert_eq!(
            vals,
            vec![
                Value::Int(1),
                Value::Float(2.0),
                Value::Date(Date(3)),
                Value::Str("x".into())
            ]
        );
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut b = PageBuilder::new(schema());
        b.push_row(&[
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Date(Date(3)),
            Value::Str("x".into()),
        ]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_string_panics() {
        let mut b = PageBuilder::new(schema());
        b.push_row(&[
            Value::Int(1),
            Value::Float(2.0),
            Value::Date(Date(3)),
            Value::Str("toolongstring".into()),
        ]);
    }

    #[test]
    #[should_panic(expected = "ASCII without NUL")]
    fn nul_byte_in_a_string_panics() {
        // A NUL byte reads as the packed sort key's padding: "a\0" would
        // sort as "a".
        let mut b = PageBuilder::new(schema());
        b.push_row(&[
            Value::Int(1),
            Value::Float(2.0),
            Value::Date(Date(3)),
            Value::Str("a\0".into()),
        ]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tuple_out_of_range_panics() {
        let b = PageBuilder::new(schema());
        let page = b.finish();
        let _ = page.tuple(0);
    }

    #[test]
    fn prefetch_row_ignores_rows_out_of_range() {
        let empty = PageBuilder::new(schema()).finish();
        for row in [0, 1, usize::MAX] {
            empty.prefetch_row(row);
        }
        // 157 rows of 26 B: the last row ends at the payload's last byte.
        let mut b = PageBuilder::new(schema());
        while b.push_row(&[
            Value::Int(1),
            Value::Float(2.0),
            Value::Date(Date(3)),
            Value::Str("x".into()),
        ]) {}
        let page = b.finish();
        let last = page.rows() - 1;
        assert_eq!((last + 1) * 26, page.byte_len());
        for row in [0, last, last + 1, usize::MAX] {
            page.prefetch_row(row);
        }
        assert_eq!(page.tuple(last).get_int(0), 1, "a prefetch changes nothing");
    }

    #[test]
    fn gather_columns_match_tuple_accessors() {
        let strs = ["", "x", "a b", "abcdef", " lead", "\x01~"];
        let floats = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
        let rows: Vec<Vec<Value>> = (0..37)
            .map(|i| {
                let nan = f64::from_bits(0x7ff8_0000_0000_0000 | i as u64);
                let f = [floats[i % 4], nan, i as f64 * 0.5 - 3.0][i % 3];
                vec![
                    Value::Int(i as i64 * 7 - 100),
                    Value::Float(if i % 5 == 0 { -f } else { f }),
                    Value::Date(Date(i as i32 * 11 - 50)),
                    Value::Str(strs[i % strs.len()].into()),
                ]
            })
            .collect();
        let mut b = PageBuilder::new(schema());
        for row in &rows {
            b.push_row(row);
        }
        let page = b.finish();
        let (mut ints, mut floats, mut dates) = (Vec::new(), Vec::new(), Vec::new());
        page.gather_i64(0, &mut ints);
        page.gather_f64(1, &mut floats);
        page.gather_date(2, &mut dates);
        assert_eq!(ints.len(), 37);
        let (int, float) = (page.cells::<i64, 8>(0), page.cells::<f64, 8>(1));
        let (date, text) = (page.cells::<i32, 4>(2), page.str_cells(3, 6));
        for (r, t) in page.tuples().enumerate() {
            assert_eq!(ints[r], t.get_int(0));
            assert_eq!(floats[r].to_bits(), t.get_float(1).to_bits());
            assert_eq!(dates[r], t.get_date(2).0);
            assert_eq!(
                (int(r), float(r).to_bits(), date(r)),
                (ints[r], floats[r].to_bits(), dates[r])
            );
            assert_eq!(text(r), t.get_str(3).as_bytes());
            // Every cell round-trips through the one encoder, bit for
            // bit, and each encodes as the bytes the row holds.
            let mut raw = Vec::new();
            for (field, v) in schema().fields().iter().zip(&rows[r]) {
                v.encode(field.dtype, &mut raw).expect("fits");
            }
            assert_eq!(raw, t.raw());
            for (i, want) in rows[r].iter().enumerate() {
                assert!(t.get_value(i).total_cmp(want).is_eq(), "row {r} field {i}");
            }
        }
        // Gather clears previous contents.
        page.gather_i64(0, &mut ints);
        assert_eq!(ints.len(), 37);
    }

    #[test]
    #[should_panic(expected = "type mismatch on field 1")]
    fn gather_wrong_type_panics() {
        let mut b = PageBuilder::new(schema());
        b.push_row(&[
            Value::Int(1),
            Value::Float(2.0),
            Value::Date(Date(3)),
            Value::Str("x".into()),
        ]);
        let page = b.finish();
        let mut out = Vec::new();
        page.gather_i64(1, &mut out);
    }

    #[test]
    fn copy_rows_into_selects_and_respects_capacity() {
        let mut b = PageBuilder::new(schema());
        for i in 0..10 {
            b.push_row(&[
                Value::Int(i),
                Value::Float(0.0),
                Value::Date(Date(0)),
                Value::Str("".into()),
            ]);
        }
        let page = b.finish();
        // Mixed runs: consecutive [1,2,3] coalesce, then isolated 7, 9.
        let sel = [1u32, 2, 3, 7, 9];
        let mut out = PageBuilder::new(page.schema().clone());
        assert_eq!(page.copy_rows_into(&sel, &mut out), 5);
        let got: Vec<i64> = out.finish().tuples().map(|t| t.get_int(0)).collect();
        assert_eq!(got, vec![1, 2, 3, 7, 9]);
        // A builder with room for 2 rows takes only the first 2.
        let mut small = PageBuilder::with_page_size(page.schema().clone(), 52);
        assert_eq!(page.copy_rows_into(&sel, &mut small), 2);
        let got: Vec<i64> = small.finish().tuples().map(|t| t.get_int(0)).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn push_selected_emits_full_pages_and_keeps_the_remainder() {
        let mut b = PageBuilder::new(schema());
        for i in 0..10 {
            b.push_row(&[
                Value::Int(i),
                Value::Float(0.0),
                Value::Date(Date(0)),
                Value::Str("".into()),
            ]);
        }
        let page = b.finish();
        let keys = |p: &Page| p.tuples().map(|t| t.get_int(0)).collect::<Vec<_>>();
        // Two rows per output page: five selected rows fill two pages
        // on the way and leave the fifth buffered.
        let mut out = PageBuilder::with_page_size(page.schema().clone(), 52);
        let mut emitted = Vec::new();
        out.push_selected(&page, &[1, 2, 3, 7, 9], |full| emitted.push(keys(&full)));
        assert_eq!(emitted, vec![vec![1, 2], vec![3, 7]]);
        assert_eq!(out.rows, 1);
        // A builder left full is the caller's to flush: the next call
        // emits it before appending.
        out.push_selected(&page, &[0], |full| emitted.push(keys(&full)));
        assert!(out.is_full() && emitted.len() == 2);
        out.push_selected(&page, &[4], |full| emitted.push(keys(&full)));
        assert_eq!(emitted[2], vec![9, 0]);
        // An empty selection, or a page without rows, moves nothing.
        let empty = PageBuilder::new(page.schema().clone()).finish();
        out.push_selected(&page, &[], |_| panic!("nothing to emit"));
        out.push_selected(&empty, &[], |_| panic!("nothing to emit"));
        assert_eq!(keys(&out.finish()), vec![4]);
    }

    #[test]
    fn payload_and_raw_rows_cover_page() {
        let mut b = PageBuilder::new(schema());
        for i in 0..4 {
            b.push_row(&[
                Value::Int(i),
                Value::Float(0.0),
                Value::Date(Date(0)),
                Value::Str("".into()),
            ]);
        }
        let page = b.finish();
        assert_eq!(page.payload().len(), 4 * 26);
        let rows: Vec<&[u8]> = page.raw_rows().collect();
        assert_eq!(rows.len(), 4);
        for (r, raw) in rows.iter().enumerate() {
            assert_eq!(*raw, page.tuple(r).raw());
        }
    }

    #[test]
    fn tuples_iterator_counts() {
        let mut b = PageBuilder::new(schema());
        for i in 0..5 {
            b.push_row(&[
                Value::Int(i),
                Value::Float(0.0),
                Value::Date(Date(0)),
                Value::Str("".into()),
            ]);
        }
        let page = b.finish();
        let keys: Vec<i64> = page.tuples().map(|t| t.get_int(0)).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
        assert_eq!(page.byte_len(), 5 * 26);
    }
}
