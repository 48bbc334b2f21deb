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
//!
//! # Frames
//!
//! The unit of I/O is the **frame**: a contiguous run of whole records,
//! sized in pages ([`frame_bytes`]) by whoever opens the stream. A
//! [`SpillWriter`] owns one frame; rows are appended straight into it
//! (a pushed row's record gets its header when it completes) and a full
//! frame leaves in one `write_all` on the bare file. A [`SpillReader`]
//! fills its frame with one `read`, cuts pages out of it, and carries a
//! record the read split over to the front before the next one — so
//! the two sides need not agree on a frame size, and on disk a file is
//! the plain record sequence whatever frames wrote it. There is no
//! second buffer on either side: each row is copied once on its way
//! out, each page once on its way in.
//!
//! What comes back is checked, not trusted: a file that ends inside a
//! record is [`io::ErrorKind::UnexpectedEof`], a record of no rows or
//! of more than `MAX_RECORD_BYTES` is [`io::ErrorKind::InvalidData`].

use crate::page::{Page, PAGE_SIZE};
use crate::schema::Schema;
#[expect(
    clippy::disallowed_types,
    reason = "storage::spill owns the spill files"
)]
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide counter making spill file names unique.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Upper bound on a single record's payload, enforced on read as a
/// corruption guard (writers never exceed one page per record).
const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// The largest frame, in pages, and the frame of a stream opened
/// without one: past 64 KiB a bigger write buys no more bandwidth.
pub const MAX_FRAME_PAGES: usize = 16;

/// Payload bytes of a full record: the rows one default-sized page
/// holds (one row, when a row is wider than a page).
fn record_bytes(schema: &Schema) -> usize {
    let w = schema.row_width();
    (PAGE_SIZE / w).max(1) * w
}

/// Bytes a frame of `pages` pages takes for rows of `schema`: room for
/// that many full records with their headers. It is what a stream
/// opened with such a frame holds in memory.
pub fn frame_bytes(schema: &Schema, pages: usize) -> usize {
    pages * (4 + record_bytes(schema))
}

/// Streams rows into a new spill file. Call [`SpillWriter::finish`] to
/// obtain the readable [`SpillFile`]; a writer dropped unfinished
/// removes its partial file.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "storage::spill owns the spill files"
)]
pub struct SpillWriter {
    file: File,
    path: PathBuf,
    schema: Arc<Schema>,
    /// Whole records, and last the one pushed rows are gathering in,
    /// not yet written. Its capacity is the frame's size: what has no
    /// room in it waits for the frame to be written out.
    frame: Vec<u8>,
    /// Rows pushed into the last record, which has no header yet.
    open_rows: usize,
    /// Payload bytes of a full record.
    record_bytes: usize,
    pages: usize,
    rows: u64,
    finished: bool,
}

impl SpillWriter {
    /// Creates a uniquely named spill file in `dir` (created if
    /// missing) for rows of `schema`, with the largest frame.
    pub fn create(dir: &Path, schema: Arc<Schema>) -> io::Result<Self> {
        Self::create_framed(dir, schema, MAX_FRAME_PAGES)
    }

    /// [`SpillWriter::create`] with a frame of `frame_pages` pages
    /// ([`frame_bytes`] of memory).
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "storage::spill owns the spill files"
    )]
    pub fn create_framed(dir: &Path, schema: Arc<Schema>, frame_pages: usize) -> io::Result<Self> {
        let name = format!(
            "cordoba-spill-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        // The directory is made when it turns out to be missing, not
        // looked for on every stream.
        let file = File::create(&path).or_else(|e| match e.kind() {
            io::ErrorKind::NotFound => fs::create_dir_all(dir).and_then(|()| File::create(&path)),
            _ => Err(e),
        })?;
        Ok(Self {
            file,
            path,
            record_bytes: record_bytes(&schema),
            frame: Vec::with_capacity(frame_bytes(&schema, frame_pages.max(1))),
            schema,
            open_rows: 0,
            pages: 0,
            rows: 0,
            finished: false,
        })
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows + self.open_rows as u64
    }

    /// Payload bytes written so far (excluding record headers).
    fn bytes(&self) -> u64 {
        self.rows() * self.schema.row_width() as u64
    }

    /// Appends one pre-encoded row. Rows gather into records of a
    /// page's worth each — the records, and so the read-back page
    /// boundaries, of filling a [`crate::PageBuilder`] and writing each
    /// page as it fills; [`SpillWriter::finish`] ends the partial tail.
    pub fn push_row(&mut self, row: &[u8]) -> io::Result<()> {
        assert_eq!(row.len(), self.schema.row_width(), "spilled row width");
        if self.open_rows == 0 {
            self.begin_record(self.record_bytes)?;
        }
        self.frame.extend_from_slice(row);
        self.open_rows += 1;
        if self.open_rows * row.len() == self.record_bytes {
            self.end_record();
        }
        Ok(())
    }

    /// Makes room for a record of `payload` bytes — the frame leaves in
    /// one write if it has none — and appends its header, the row count
    /// still to come.
    fn begin_record(&mut self, payload: usize) -> io::Result<()> {
        if self.frame.len() + 4 + payload > self.frame.capacity() {
            self.file.write_all(&self.frame)?;
            self.frame.clear();
        }
        self.frame.extend_from_slice(&[0; 4]);
        Ok(())
    }

    /// Ends the frame's last record, if it is open: its `open_rows`
    /// rows are counted into its header.
    fn end_record(&mut self) {
        let rows = std::mem::take(&mut self.open_rows);
        if rows > 0 {
            let header = self.frame.len() - rows * self.schema.row_width() - 4;
            self.frame[header..header + 4].copy_from_slice(&(rows as u32).to_le_bytes());
            self.pages += 1;
            self.rows += rows as u64;
        }
    }

    /// Writes one page as one record, after any rows pushed before it.
    /// Empty pages are skipped.
    pub fn write_page(&mut self, page: &Page) -> io::Result<()> {
        debug_assert_eq!(page.schema().row_width(), self.schema.row_width());
        self.write_record(page.payload(), page.rows())
    }

    /// Writes `rows` contiguous pre-encoded rows (`rows * row_width`
    /// bytes), chunked into page-sized records — the bulk path for
    /// draining a join build arena.
    pub fn write_raw_rows(&mut self, payload: &[u8], rows: usize) -> io::Result<()> {
        let w = self.schema.row_width();
        debug_assert_eq!(payload.len(), rows * w);
        for chunk in payload.chunks(self.record_bytes) {
            self.write_record(chunk, chunk.len() / w)?;
        }
        Ok(())
    }

    fn write_record(&mut self, payload: &[u8], rows: usize) -> io::Result<()> {
        self.end_record();
        if rows > 0 {
            self.begin_record(payload.len())?;
            self.frame.extend_from_slice(payload);
            self.open_rows = rows;
            self.end_record();
        }
        Ok(())
    }

    /// Ends the record of the pushed rows still in hand, writes the
    /// last frame, and seals the file for reading.
    pub fn finish(mut self) -> io::Result<SpillFile> {
        self.end_record();
        self.file.write_all(&self.frame)?;
        self.finished = true;
        Ok(SpillFile {
            path: self.path.clone(),
            schema: self.schema.clone(),
            pages: self.pages,
            rows: self.rows,
            bytes: self.bytes(),
        })
    }
}

impl Drop for SpillWriter {
    #[expect(
        clippy::disallowed_methods,
        reason = "storage::spill owns the spill files"
    )]
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

    /// Opens the file for sequential page-at-a-time reading with the
    /// largest frame. The reader owns the file, which is deleted when
    /// the reader drops.
    pub fn into_reader(self) -> io::Result<SpillReader> {
        self.into_reader_framed(MAX_FRAME_PAGES)
    }

    /// [`SpillFile::into_reader`] with a frame of `frame_pages` pages
    /// ([`frame_bytes`] of memory, beside the page handed out).
    #[expect(
        clippy::disallowed_types,
        reason = "storage::spill owns the spill files"
    )]
    pub fn into_reader_framed(self, frame_pages: usize) -> io::Result<SpillReader> {
        Ok(SpillReader {
            file: File::open(&self.path)?,
            frame: vec![0; frame_bytes(&self.schema, frame_pages.max(1))],
            unread: 0..0,
            source: self,
            read_pages: 0,
        })
    }
}

impl Drop for SpillFile {
    #[expect(
        clippy::disallowed_methods,
        reason = "storage::spill owns the spill files"
    )]
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Sequential reader over a spill file's page records.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "storage::spill owns the spill files"
)]
pub struct SpillReader {
    file: File,
    /// Zeroed once when the file is opened and refilled in place.
    frame: Vec<u8>,
    /// The part of the frame read from the file and not yet cut into
    /// pages.
    unread: std::ops::Range<usize>,
    source: SpillFile,
    read_pages: usize,
}

impl SpillReader {
    /// Makes the next `bytes` of the file available at the front of
    /// `unread`. What is buffered already moves to the front of the
    /// frame and one read fills the rest (a regular file gives all it
    /// is asked for while it lasts); the frame grows only for a record
    /// larger than it. A file that ends first is cut short.
    fn buffer(&mut self, bytes: usize) -> io::Result<()> {
        if self.unread.len() < bytes {
            self.frame.copy_within(self.unread.clone(), 0);
            self.unread = 0..self.unread.len();
            self.frame.resize(self.frame.len().max(bytes), 0);
        }
        while self.unread.len() < bytes {
            match self.file.read(&mut self.frame[self.unread.end..])? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                read => self.unread.end += read,
            }
        }
        Ok(())
    }

    /// Reads the next page, or `None` when every record has been
    /// consumed.
    pub fn next_page(&mut self) -> io::Result<Option<Arc<Page>>> {
        if self.read_pages == self.source.pages {
            return Ok(None);
        }
        self.buffer(4)?;
        let header = &self.frame[self.unread.start..];
        let rows = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let len = rows.saturating_mul(self.source.schema.row_width());
        if rows == 0 || len > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt spill record: {rows} rows"),
            ));
        }
        self.buffer(4 + len)?;
        let at = self.unread.start + 4;
        self.unread.start = at + len;
        self.read_pages += 1;
        Ok(Some(Page::from_payload(
            self.source.schema.clone(),
            self.frame[at..at + len].into(),
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
