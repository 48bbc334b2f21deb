//! Spill streams move frames, and what they move is checked: whatever
//! mix of row pushes, whole pages and bulk row runs wrote a file,
//! through a frame of whatever size, the reader — with a frame of its
//! own size — hands back the same rows in the same order, in the
//! records the writer counted; and a file that was cut or scribbled on
//! is a typed I/O error from `next_page`, never a panic, a short page
//! or a silently missing tail.

#![allow(
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test code: it corrupts spill files on purpose and fails by panicking"
)]

use cordoba_storage::spill::{SpillFile, SpillWriter, MAX_FRAME_PAGES};
use cordoba_storage::{DataType, Field, Page, PageBuilder, Schema, PAGE_SIZE};
use proptest::prelude::*;
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::sync::Arc;

/// A schema of one string column: rows of exactly `width` bytes.
fn schema(width: usize) -> Arc<Schema> {
    Schema::new(vec![Field::new("s", DataType::Str(width))])
}

/// Row number `i` of a stream: bytes that differ from row to row and
/// along the row.
fn row(i: usize, width: usize) -> Vec<u8> {
    (0..width).map(|j| (i * 31 + j * 7) as u8).collect()
}

/// What a test writes next.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// This many rows, one `push_row` each.
    Push(usize),
    /// One page holding this share (in 1/8) of the rows a page takes.
    Page(usize),
    /// This many rows in one `write_raw_rows`.
    Raw(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0..3usize, 0..=40usize, 0..=8usize).prop_map(|(kind, rows, eighths)| match kind {
        0 => Op::Push(rows),
        1 => Op::Page(eighths),
        _ => Op::Raw(rows * 20),
    });
    proptest::collection::vec(op, 0..24)
}

/// Row widths 1..=300 B — most do not divide a page — and, one time in
/// eight, a row wider than a page.
fn widths() -> impl Strategy<Value = usize> {
    (0..8usize, 1..=300usize).prop_map(|(wide, w)| if wide == 0 { PAGE_SIZE + w } else { w })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frames_round_trip_rows_in_order(
        width in widths(),
        write_frame in 1..=MAX_FRAME_PAGES,
        read_frame in 1..=MAX_FRAME_PAGES,
        ops in ops(),
    ) {
        let s = schema(width);
        let per_record = (PAGE_SIZE / width).max(1);
        let dir = std::env::temp_dir();
        let mut w = SpillWriter::create_framed(&dir, s.clone(), write_frame).expect("create");
        // The rows written, and the records they must come back in.
        let mut rows: Vec<Vec<u8>> = Vec::new();
        let mut records: Vec<usize> = Vec::new();
        let mut open = 0usize;
        let take = |n: usize, rows: &mut Vec<Vec<u8>>| -> Vec<u8> {
            let from = rows.len();
            rows.extend((from..from + n).map(|i| row(i, width)));
            rows[from..].concat()
        };
        for op in ops {
            match op {
                Op::Push(n) => {
                    for _ in 0..n {
                        w.push_row(&take(1, &mut rows)).expect("push");
                        open += 1;
                        if open == per_record {
                            records.push(std::mem::take(&mut open));
                        }
                    }
                }
                Op::Page(eighths) => {
                    let n = per_record * eighths / 8;
                    let mut b = PageBuilder::with_page_size(s.clone(), PAGE_SIZE.max(width));
                    for raw in take(n, &mut rows).chunks(width) {
                        prop_assert!(b.push_raw(raw));
                    }
                    w.write_page(&b.finish()).expect("page");
                    records.extend(Some(std::mem::take(&mut open)).filter(|&r| r > 0));
                    records.extend(Some(n).filter(|&r| r > 0));
                }
                Op::Raw(n) => {
                    w.write_raw_rows(&take(n, &mut rows), n).expect("raw rows");
                    if n > 0 {
                        records.extend(Some(std::mem::take(&mut open)).filter(|&r| r > 0));
                    }
                    records.extend((0..n).step_by(per_record).map(|at| per_record.min(n - at)));
                }
            }
            prop_assert_eq!(w.rows(), rows.len() as u64);
        }
        // `finish` ends the partial last record.
        records.extend(Some(open).filter(|&r| r > 0));
        let f = w.finish().expect("finish");
        prop_assert_eq!(f.pages(), records.len());
        prop_assert_eq!(f.rows(), rows.len() as u64);
        prop_assert_eq!(f.bytes(), (rows.len() * width) as u64);
        let on_disk = std::fs::metadata(f.path()).expect("file").len();
        prop_assert_eq!(on_disk, f.bytes() + 4 * f.pages() as u64, "records and nothing else");

        let mut r = f.into_reader_framed(read_frame).expect("open");
        let mut got: Vec<Vec<u8>> = Vec::new();
        for want in &records {
            let page = r.next_page().expect("read").expect("a page per record");
            prop_assert_eq!(page.rows(), *want);
            got.extend(page.raw_rows().map(<[u8]>::to_vec));
        }
        prop_assert!(r.next_page().expect("read").is_none());
        prop_assert_eq!(got, rows);
    }
}

/// Ten and a half pages of 16-byte rows through a two-page frame.
fn sealed() -> SpillFile {
    let mut w = SpillWriter::create_framed(&std::env::temp_dir(), schema(16), 2).expect("create");
    for i in 0..256 * 10 + 128 {
        w.push_row(&row(i, 16)).expect("push");
    }
    w.finish().expect("finish")
}

/// Pages read before the error, and the error.
fn read_to_error(file: SpillFile, frame: usize) -> (Vec<Arc<Page>>, std::io::Error) {
    let mut r = file.into_reader_framed(frame).expect("open");
    let mut pages = Vec::new();
    loop {
        match r.next_page() {
            Ok(Some(page)) => pages.push(page),
            Ok(None) => panic!("a ruined file read to its end, {} pages", pages.len()),
            Err(e) => return (pages, e),
        }
    }
}

#[test]
fn a_file_cut_short_is_unexpected_eof_where_it_ends() {
    let record = 4 + 4096u64;
    for (cut, whole) in [
        (0, 0),                    // nothing left
        (3 * record + 2, 3),       // inside a record's header
        (3 * record + 4, 3),       // after a header, before its rows
        (3 * record + 1000, 3),    // inside a record's rows
        (10 * record + 4 + 7, 10), // inside the partial last record
    ] {
        for frame in [1, 2, MAX_FRAME_PAGES] {
            let file = sealed();
            let disk = std::fs::OpenOptions::new().write(true).open(file.path());
            disk.expect("spill file").set_len(cut).expect("truncate");
            let (pages, err) = read_to_error(file, frame);
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at {cut}: {err}");
            assert_eq!(
                pages.len(),
                whole,
                "cut at {cut}: every whole record came back"
            );
            assert!(
                pages.iter().all(|p| p.rows() == 256),
                "cut at {cut}: no short page"
            );
        }
    }
}

#[test]
fn a_scribbled_header_is_invalid_data_or_runs_past_the_file() {
    let record = 4 + 4096u64;
    for (rows, kind) in [
        // No record is empty ...
        (0u32, ErrorKind::InvalidData),
        // ... or larger than `MAX_RECORD_BYTES` (here 64 GiB) ...
        (u32::MAX, ErrorKind::InvalidData),
        // ... and one that claims more rows than the file has left runs
        // past its end.
        (100_000, ErrorKind::UnexpectedEof),
    ] {
        let file = sealed();
        let mut disk = std::fs::OpenOptions::new()
            .write(true)
            .open(file.path())
            .expect("spill file");
        disk.seek(SeekFrom::Start(5 * record)).expect("seek");
        disk.write_all(&rows.to_le_bytes()).expect("scribble");
        let (pages, err) = read_to_error(file, 2);
        assert_eq!(err.kind(), kind, "{rows} rows: {err}");
        assert_eq!(
            pages.len(),
            5,
            "{rows} rows: the records before it came back"
        );
    }
}

#[test]
fn a_missing_directory_is_made_and_a_file_in_its_place_is_an_error() {
    let s = schema(16);
    let dir = std::env::temp_dir().join(format!("cordoba-frames-{}", std::process::id()));
    let nested = dir.join("a").join("b");
    let w = SpillWriter::create(&nested, s.clone()).expect("directory made on demand");
    drop(w);
    assert_eq!(std::fs::read_dir(&nested).expect("made").count(), 0);
    let blocker = dir.join("file");
    std::fs::write(&blocker, b"not a directory").expect("blocker");
    assert!(SpillWriter::create(&blocker, s).is_err());
    std::fs::remove_dir_all(&dir).expect("clean up");
}
