//! Figure `size`: the workspace's code size and public surface, one row
//! per package (each crate under `crates/`, the root facade and each
//! `vendor/` stand-in), read from the source tree this crate was built
//! in. Committed as `BENCH_size.json` ([`crate::gates::SIZE`]), so a
//! change that adds or deletes code shows its size change as a diff.
//!
//! One rule counts every column but the last: a line counts when it
//! comes before its file's first `#[cfg(test)]`, is not blank and does
//! not start with `//`, over the package's `src/`.
//! * `code_lines` — every such line;
//! * `pub_items` — those that start `pub fn | struct | enum | type | mod
//!   | use | const | static | trait` (so not `pub(crate)`);
//! * `expects` — those holding a `#[expect(` or `#![expect(` opt-out;
//! * `unsafe_blocks` — those opening an `unsafe {` block.
//!
//! `tests` counts the `#[test]` functions of the package's `src/` and
//! `tests/`, test modules included.

use crate::experiments::ExpConfig;
use crate::figures::Table;
use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root, as this crate was built.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Where the packages are, after the root facade: every directory
/// directly under these that holds a `Cargo.toml`, in name order.
const PARENTS: [&str; 2] = ["crates", "vendor"];

/// Every `.rs` file under `dir`, in path order; none when it is missing.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|entry| entry.path()) {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// The packages' directories relative to the root (`""`, the facade).
fn packages(root: &Path) -> Vec<String> {
    let mut dirs = vec![String::new()];
    for parent in PARENTS {
        let entries = fs::read_dir(root.join(parent)).into_iter().flatten();
        let mut found: Vec<String> = entries
            .flatten()
            .filter(|entry| entry.path().join("Cargo.toml").is_file())
            .map(|entry| format!("{parent}/{}", entry.file_name().to_string_lossy()))
            .collect();
        found.sort();
        dirs.extend(found);
    }
    dirs
}

/// A file's text, whose absence is a broken checkout.
fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The package name in `dir`'s `Cargo.toml`.
fn package_name(dir: &Path) -> String {
    let manifest = read(&dir.join("Cargo.toml"));
    let name = manifest.lines().find_map(|l| l.strip_prefix("name = "));
    let name = name.unwrap_or_else(|| panic!("{}: no package name", dir.display()));
    name.trim_matches('"').to_string()
}

/// One package's counts, in the table's column order.
#[derive(Default)]
struct Counts([usize; 5]);

impl Counts {
    /// Adds the counted lines of one `src/` file.
    fn add_source(&mut self, text: &str) {
        const ITEMS: [&str; 9] = [
            "fn", "struct", "enum", "type", "mod", "use", "const", "static", "trait",
        ];
        let [code, items, expects, unsafes, _] = &mut self.0;
        for line in text.lines().take_while(|l| !l.contains("#[cfg(test)]")) {
            let line = line.trim_start_matches(|c: char| c.is_ascii_whitespace() || c == '\x0b');
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            *code += 1;
            let item = line.strip_prefix("pub ").and_then(|r| r.split_once(' '));
            *items += usize::from(item.is_some_and(|(kw, _)| ITEMS.contains(&kw)));
            *expects += usize::from(line.contains("#[expect(") || line.contains("#![expect("));
            *unsafes += usize::from(line.contains("unsafe {"));
        }
    }

    /// Adds the `#[test]` functions of one file.
    fn add_tests(&mut self, text: &str) {
        let tests = text
            .lines()
            .filter(|l| l.trim_start().starts_with("#[test]"));
        self.0[4] += tests.count();
    }

    fn add(&mut self, other: &Counts) {
        for (sum, n) in self.0.iter_mut().zip(other.0) {
            *sum += n;
        }
    }

    /// The counts as CSV cells.
    fn cells(&self) -> String {
        let cells: Vec<String> = self.0.iter().map(usize::to_string).collect();
        cells.join(",")
    }
}

/// The table: a row per package, then the workspace's total.
pub(crate) fn crates(_: &ExpConfig) -> Table {
    let title = "Code size and public surface per package (counted before each file's tests)";
    let header = "package,path,code_lines,pub_items,expects,unsafe_blocks,tests";
    let mut table = Table::new(title, "size_crates.csv", header);
    let root = Path::new(ROOT);
    let mut total = Counts::default();
    for dir in packages(root) {
        let path = root.join(&dir);
        let mut counts = Counts::default();
        for file in rust_files(&path.join("src")) {
            let text = read(&file);
            counts.add_source(&text);
            counts.add_tests(&text);
        }
        for file in rust_files(&path.join("tests")) {
            counts.add_tests(&read(&file));
        }
        let (name, shown) = (package_name(&path), if dir.is_empty() { "." } else { &dir });
        table
            .rows
            .push(format!("{name},{shown},{}", counts.cells()));
        total.add(&counts);
    }
    table.rows.push(format!("total,,{}", total.cells()));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_the_one_rule() {
        let mut counts = Counts::default();
        counts.add_source(
            "//! doc\n\
             pub fn a() {}\n\
             \n\
             pub(crate) fn b() {}\n\
             \x20   /// doc\n\
             \x20   pub struct C;\n\
             #[expect(clippy::x, reason = \"y\")]\n\
             let v = unsafe { 1 };\n\
             #[cfg(test)]\n\
             pub fn not_counted() {}\n",
        );
        counts.add_tests("#[test]\nfn t() {}\n    #[test]\n    fn u() {}\n");
        assert_eq!(counts.0, [5, 2, 1, 1, 2]);
    }
}
