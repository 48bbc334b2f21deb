//! Spill files: schema-typed, page-framed on-disk buffers for
//! out-of-core operators (the hybrid hash join's victim partitions and
//! the external sort's runs).
//!
//! A spill file is a sequence of records `[u32 row count][payload]`,
//! each holding at most one page's worth of rows so readback is
//! memory-bounded regardless of how the rows were written. The schema
//! is *not* serialized — it lives with the operator that owns the file
//! — so a spill file is only meaningful to the query that wrote it.
//! Files delete themselves when dropped: a finished query, successful
//! or failed, leaves no residue in the spill directory.

use crate::page::{Page, PAGE_SIZE};
use crate::schema::Schema;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide counter making spill file names unique.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Upper bound on a single record's payload, enforced on read as a
/// corruption guard (writers never exceed one page per record).
const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// Streams rows into a new spill file. Call [`SpillWriter::finish`] to
/// obtain the readable [`SpillFile`]; a writer dropped unfinished
/// removes its partial file.
#[derive(Debug)]
pub struct SpillWriter {
    file: BufWriter<File>,
    path: PathBuf,
    schema: Arc<Schema>,
    /// Rows pushed one at a time, not yet a record: at most a page's worth.
    row_buf: Vec<u8>,
    /// Payload bytes of a full record: the rows one default-sized page
    /// holds.
    record_bytes: usize,
    pages: usize,
    rows: u64,
    bytes: u64,
    finished: bool,
}

impl SpillWriter {
    /// Creates a uniquely named spill file in `dir` (created if
    /// missing) for rows of `schema`.
    pub fn create(dir: &Path, schema: Arc<Schema>) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let name = format!(
            "cordoba-spill-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        let file = BufWriter::new(File::create(&path)?);
        let w = schema.row_width();
        Ok(Self {
            file,
            path,
            schema,
            row_buf: Vec::new(),
            record_bytes: (PAGE_SIZE / w).max(1) * w,
            pages: 0,
            rows: 0,
            bytes: 0,
            finished: false,
        })
    }

    /// Schema of the spilled rows.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Payload bytes written so far (excluding record headers).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one pre-encoded row. Rows gather into records of a
    /// page's worth each — the records, and so the read-back page
    /// boundaries, of filling a [`crate::PageBuilder`] and writing each
    /// page as it fills; [`SpillWriter::finish`] writes the partial tail.
    pub fn push_row(&mut self, row: &[u8]) -> io::Result<()> {
        assert_eq!(row.len(), self.schema.row_width(), "spilled row width");
        self.row_buf.extend_from_slice(row);
        if self.row_buf.len() == self.record_bytes {
            self.flush_rows()?;
        }
        Ok(())
    }

    /// Writes the pushed rows in hand, if any, as one record.
    fn flush_rows(&mut self) -> io::Result<()> {
        if self.row_buf.is_empty() {
            return Ok(());
        }
        // Detached so `write_record` can borrow the writer; handed back
        // to keep its allocation.
        let buf = std::mem::take(&mut self.row_buf);
        let written = self.write_record(&buf, buf.len() / self.schema.row_width());
        self.row_buf = buf;
        self.row_buf.clear();
        written
    }

    /// Writes one page as one record, after any rows pushed before it.
    /// Empty pages are skipped.
    pub fn write_page(&mut self, page: &Page) -> io::Result<()> {
        debug_assert_eq!(page.schema().row_width(), self.schema.row_width());
        self.flush_rows()?;
        self.write_record(page.payload(), page.rows())
    }

    /// Writes `rows` contiguous pre-encoded rows (`rows * row_width`
    /// bytes), chunked into page-sized records — the bulk path for
    /// draining a join build arena.
    pub fn write_raw_rows(&mut self, payload: &[u8], rows: usize) -> io::Result<()> {
        let w = self.schema.row_width();
        debug_assert_eq!(payload.len(), rows * w);
        self.flush_rows()?;
        for chunk in payload.chunks(self.record_bytes) {
            self.write_record(chunk, chunk.len() / w)?;
        }
        Ok(())
    }

    fn write_record(&mut self, payload: &[u8], rows: usize) -> io::Result<()> {
        if rows == 0 {
            return Ok(());
        }
        self.file.write_all(&(rows as u32).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.pages += 1;
        self.rows += rows as u64;
        self.bytes += payload.len() as u64;
        Ok(())
    }

    /// Writes the pushed rows still in hand, flushes, and seals the
    /// file for reading.
    pub fn finish(mut self) -> io::Result<SpillFile> {
        self.flush_rows()?;
        self.file.flush()?;
        self.finished = true;
        Ok(SpillFile {
            path: self.path.clone(),
            schema: self.schema.clone(),
            pages: self.pages,
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// A sealed spill file. Deletes the underlying file on drop.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    schema: Arc<Schema>,
    pages: usize,
    rows: u64,
    bytes: u64,
}

impl SpillFile {
    /// Schema of the spilled rows.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total rows in the file.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Total payload bytes — what reloading every row would cost in
    /// memory, the quantity budget decisions are made on.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of page records.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// On-disk location (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens the file for sequential page-at-a-time reading. The
    /// reader owns the file, which is deleted when the reader drops.
    pub fn into_reader(self) -> io::Result<SpillReader> {
        let file = BufReader::new(File::open(&self.path)?);
        Ok(SpillReader {
            file,
            source: self,
            read_pages: 0,
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Sequential reader over a spill file's page records.
#[derive(Debug)]
pub struct SpillReader {
    file: BufReader<File>,
    source: SpillFile,
    read_pages: usize,
}

impl SpillReader {
    /// Schema of the pages this reader yields.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.source.schema
    }

    /// Reads the next page, or `None` when every record has been
    /// consumed.
    pub fn next_page(&mut self) -> io::Result<Option<Arc<Page>>> {
        if self.read_pages == self.source.pages {
            return Ok(None);
        }
        let mut header = [0u8; 4];
        self.file.read_exact(&mut header)?;
        let rows = u32::from_le_bytes(header) as usize;
        let len = rows * self.source.schema.row_width();
        if rows == 0 || len > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt spill record: {rows} rows"),
            ));
        }
        let mut data = vec![0u8; len];
        self.file.read_exact(&mut data)?;
        self.read_pages += 1;
        Ok(Some(Page::from_payload(
            self.source.schema.clone(),
            data.into_boxed_slice(),
            rows,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageBuilder;
    use crate::schema::{DataType, Field};
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
    }

    fn dir() -> PathBuf {
        std::env::temp_dir()
    }

    fn make_page(schema: &Arc<Schema>, base: i64, rows: usize) -> Arc<Page> {
        let mut b = PageBuilder::new(schema.clone());
        for i in 0..rows {
            b.push_row(&[Value::Int(base + i as i64), Value::Float(i as f64 * 0.5)]);
        }
        b.finish()
    }

    #[test]
    fn page_round_trip_preserves_rows() {
        let s = schema();
        let mut w = SpillWriter::create(&dir(), s.clone()).expect("create");
        let pages = [make_page(&s, 0, 100), make_page(&s, 100, 37)];
        for p in &pages {
            w.write_page(p).expect("write");
        }
        assert_eq!(w.rows(), 137);
        let f = w.finish().expect("finish");
        assert_eq!(f.pages(), 2);
        assert_eq!(f.rows(), 137);
        assert_eq!(f.bytes(), 137 * s.row_width() as u64);
        let mut r = f.into_reader().expect("open");
        let mut got = Vec::new();
        while let Some(p) = r.next_page().expect("read") {
            got.extend(p.tuples().map(|t| t.to_values()));
        }
        let want: Vec<_> = pages
            .iter()
            .flat_map(|p| p.tuples().map(|t| t.to_values()).collect::<Vec<_>>())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn raw_rows_chunk_to_page_sized_records() {
        let s = schema();
        // 3 pages' worth of raw rows written in one call.
        let rows = 3 * (PAGE_SIZE / s.row_width());
        let mut payload = Vec::new();
        for i in 0..rows {
            payload.extend_from_slice(&(i as i64).to_le_bytes());
            payload.extend_from_slice(&(i as f64).to_le_bytes());
        }
        let mut w = SpillWriter::create(&dir(), s.clone()).expect("create");
        w.write_raw_rows(&payload, rows).expect("write");
        let f = w.finish().expect("finish");
        assert_eq!(f.pages(), 3, "chunked into page-sized records");
        let mut r = f.into_reader().expect("open");
        let mut n = 0usize;
        while let Some(p) = r.next_page().expect("read") {
            assert!(p.byte_len() <= PAGE_SIZE);
            for t in p.tuples() {
                assert_eq!(t.get_int(0), n as i64);
                n += 1;
            }
        }
        assert_eq!(n, rows);
    }

    #[test]
    fn pushed_rows_read_back_as_the_pages_a_builder_would_fill() {
        // Two and a half pages of rows, one at a time: the records are
        // the pages a `PageBuilder` flush loop would have written, and
        // rows pushed before a whole page keep their place ahead of it.
        let s = schema();
        let per_page = PAGE_SIZE / s.row_width();
        let rows = 2 * per_page + per_page / 2;
        let mut w = SpillWriter::create(&dir(), s.clone()).expect("create");
        let mut b = PageBuilder::new(s.clone());
        let mut want = Vec::new();
        for i in 0..rows {
            let row = [Value::Int(i as i64), Value::Float(i as f64)];
            if !b.push_row(&row) {
                want.push(b.finish_and_reset());
                assert!(b.push_row(&row));
            }
        }
        want.push(b.finish_and_reset());
        for page in &want {
            for raw in page.raw_rows() {
                w.push_row(raw).expect("push");
            }
        }
        want.push(make_page(&s, -7, 3));
        w.write_page(&want[3]).expect("page after rows");
        let f = w.finish().expect("finish");
        assert_eq!((f.pages(), f.rows()), (4, rows as u64 + 3));
        let mut r = f.into_reader().expect("open");
        for page in &want {
            let got = r.next_page().expect("read").expect("a record per page");
            assert_eq!(got.payload(), page.payload());
        }
        assert!(r.next_page().expect("read").is_none());
    }

    #[test]
    fn file_is_deleted_on_drop() {
        let s = schema();
        let mut w = SpillWriter::create(&dir(), s.clone()).expect("create");
        w.write_page(&make_page(&s, 0, 5)).expect("write");
        let f = w.finish().expect("finish");
        let path = f.path().to_path_buf();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists(), "spill file must self-delete");
    }

    #[test]
    fn unfinished_writer_cleans_up() {
        let s = schema();
        let mut w = SpillWriter::create(&dir(), s.clone()).expect("create");
        w.write_page(&make_page(&s, 0, 5)).expect("write");
        let path = w.path.clone();
        assert!(path.exists());
        drop(w);
        assert!(!path.exists(), "abandoned writer must remove its file");
    }

    #[test]
    fn empty_file_yields_no_pages() {
        let s = schema();
        let w = SpillWriter::create(&dir(), s).expect("create");
        let f = w.finish().expect("finish");
        assert_eq!(f.rows(), 0);
        let mut r = f.into_reader().expect("open");
        assert!(r.next_page().expect("read").is_none());
    }

    #[test]
    fn empty_pages_are_skipped() {
        let s = schema();
        let mut w = SpillWriter::create(&dir(), s.clone()).expect("create");
        w.write_page(&PageBuilder::new(s.clone()).finish())
            .expect("empty page");
        w.write_page(&make_page(&s, 7, 1)).expect("real page");
        let f = w.finish().expect("finish");
        assert_eq!(f.pages(), 1);
        assert_eq!(f.rows(), 1);
    }
}
