//! Immutable in-memory tables: a schema plus a vector of shared pages.

use crate::page::{Page, PageBuilder};
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

/// An immutable, memory-resident table.
///
/// Pages are `Arc`-shared so scans (and shared scans fanning out to
/// multiple consumers) hand out references without copying data.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    pages: Vec<Arc<Page>>,
    row_count: usize,
}

impl Table {
    /// Builds a table directly from pre-built pages — the
    /// materialization path of executors that already produce pages
    /// (e.g. the parallel morsel kernels). Every page must carry
    /// `schema`.
    pub fn from_pages(
        name: impl Into<String>,
        schema: Arc<Schema>,
        pages: Vec<Arc<Page>>,
    ) -> Arc<Table> {
        debug_assert!(pages.iter().all(|p| **p.schema() == *schema));
        let row_count = pages.iter().map(|p| p.rows()).sum();
        Arc::new(Table {
            name: name.into(),
            schema,
            pages,
            row_count,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The table's pages.
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Approximate in-memory size in bytes (page payloads).
    pub fn byte_size(&self) -> usize {
        self.pages.iter().map(|p| p.byte_len()).sum()
    }

    /// Iterates over all tuples in page order (test/reference path; the
    /// engine streams pages instead).
    pub fn scan_values(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.pages
            .iter()
            .flat_map(|p| p.tuples().map(|t| t.to_values()))
    }
}

/// Accumulates rows into pages and freezes them into a [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Arc<Schema>,
    pages: Vec<Arc<Page>>,
    current: PageBuilder,
    row_count: usize,
    page_size: usize,
}

impl TableBuilder {
    /// Starts a table with the default page size.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>) -> Self {
        Self::with_page_size(name, schema, crate::page::PAGE_SIZE)
    }

    /// Starts a table with a custom page size.
    pub fn with_page_size(name: impl Into<String>, schema: Arc<Schema>, page_size: usize) -> Self {
        Self {
            name: name.into(),
            current: PageBuilder::with_page_size(schema.clone(), page_size),
            schema,
            pages: Vec::new(),
            row_count: 0,
            page_size,
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, values: &[Value]) {
        if !self.current.push_row(values) {
            self.start_page();
            assert!(
                self.current.push_row(values),
                "fresh page must accept a row"
            );
        }
        self.row_count += 1;
    }

    /// Appends one row already encoded for this schema (exactly
    /// `row_width` bytes, e.g. a [`crate::TupleRef::raw`], or two of
    /// them end to end for a concatenated schema).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `row_width` bytes long.
    pub fn push_raw(&mut self, row: &[u8]) {
        assert_eq!(row.len(), self.schema.row_width(), "raw row width");
        if !self.current.push_raw(row) {
            self.start_page();
            assert!(self.current.push_raw(row), "fresh page must accept a row");
        }
        self.row_count += 1;
    }

    /// Freezes the full page in progress and starts an empty one.
    fn start_page(&mut self) {
        let full = std::mem::replace(
            &mut self.current,
            PageBuilder::with_page_size(self.schema.clone(), self.page_size),
        );
        self.pages.push(full.finish());
    }

    /// Freezes into an immutable table.
    pub fn finish(mut self) -> Arc<Table> {
        if !self.current.is_empty() {
            self.pages.push(self.current.finish());
        } else {
            drop(self.current);
        }
        Arc::new(Table {
            name: self.name,
            schema: self.schema,
            pages: self.pages,
            row_count: self.row_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
    }

    fn build(n: usize, page_size: usize) -> Arc<Table> {
        let mut b = TableBuilder::with_page_size("t", schema(), page_size);
        for i in 0..n {
            b.push_row(&[Value::Int(i as i64), Value::Float(i as f64 * 0.5)]);
        }
        b.finish()
    }

    #[test]
    fn rows_spill_across_pages() {
        // Row width 16; page of 64 bytes holds 4 rows.
        let t = build(10, 64);
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.pages().len(), 3);
        assert_eq!(t.pages()[0].rows(), 4);
        assert_eq!(t.pages()[2].rows(), 2);
    }

    #[test]
    fn scan_preserves_order_and_values() {
        let t = build(10, 64);
        let keys: Vec<i64> = t
            .scan_values()
            .map(|row| row[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn raw_rows_rebuild_the_same_pages() {
        let t = build(10, 64);
        let mut b = TableBuilder::with_page_size("copy", schema(), 64);
        for page in t.pages() {
            page.raw_rows().for_each(|row| b.push_raw(row));
        }
        let copy = b.finish();
        assert_eq!(copy.row_count(), 10);
        let payloads = |t: &Table| -> Vec<Vec<u8>> {
            t.pages().iter().map(|p| p.payload().to_vec()).collect()
        };
        assert_eq!(payloads(&copy), payloads(&t));
    }

    #[test]
    #[should_panic(expected = "raw row width")]
    fn raw_row_of_another_width_is_refused() {
        TableBuilder::new("t", schema()).push_raw(&[0; 8]);
    }

    #[test]
    fn empty_table() {
        let t = build(0, 64);
        assert_eq!(t.row_count(), 0);
        assert!(t.pages().is_empty());
        assert_eq!(t.byte_size(), 0);
        assert_eq!(t.scan_values().count(), 0);
    }

    #[test]
    fn byte_size_counts_payload() {
        let t = build(4, 64);
        assert_eq!(t.byte_size(), 4 * 16);
        assert_eq!(t.name(), "t");
    }
}
