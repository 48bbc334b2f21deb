//! Result emission: CSV files under `results/` plus compact ASCII
//! charts on stdout, so each figure both archives and displays the
//! series the paper plots; and the JSON emitter behind the three
//! committed documents (`BENCH_ops.json`, `BENCH_service.json`,
//! `BENCH_paper.json`), whose gate is reproduction byte for byte
//! ([`check_file`]).

use std::fs;
use std::path::{Path, PathBuf};

/// Directory results are written to (workspace-relative).
fn results_dir() -> PathBuf {
    let dir = std::env::var("CORDOBA_RESULTS").unwrap_or_else(|_| "results".into());
    PathBuf::from(dir)
}

/// Writes a CSV: its header line, then one line per row.
pub(crate) fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    let lines: Vec<&str> = std::iter::once(header)
        .chain(rows.iter().map(String::as_str))
        .collect();
    fs::write(&path, lines.join("\n") + "\n").expect("write csv");
    path
}

/// Renders one or more named series sharing an x-axis as an ASCII chart.
///
/// `series` maps a label to `(x, y)` points; x values are assumed sorted
/// and shared across series (missing points are skipped).
pub(crate) fn ascii_chart(
    title: &str,
    ylabel: &str,
    series: &[(String, Vec<(f64, f64)>)],
) -> String {
    const WIDTH: usize = 64;
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let ymax = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(_, y)| y))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    for (label, pts) in series {
        out.push_str(&format!("  {label}\n"));
        for &(x, y) in pts {
            let bars = ((y / ymax) * WIDTH as f64).round().max(0.0) as usize;
            out.push_str(&format!(
                "    {x:>8.2} | {}{} {y:.3} {ylabel}\n",
                "#".repeat(bars),
                " ".repeat(WIDTH.saturating_sub(bars)),
            ));
        }
    }
    out
}

/// A JSON value whose objects keep insertion order, so rendering the
/// same records twice gives the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, already formatted (an integer, or `Json::fixed`).
    Num(String),
    /// A string (escaped on rendering).
    Str(String),
    /// An array; rendered on one line when no element is a container.
    Arr(Vec<Json>),
    /// An object: ordered key/value records, one per line.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A float with a fixed number of decimals.
    pub(crate) fn fixed(v: f64, decimals: usize) -> Self {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// The whole document: two-space indent, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items)
                if !items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) =>
            {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out, depth);
                }
                out.push(']');
            }
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(records) => {
                out.push_str("{\n");
                for (i, (key, value)) in records.iter().enumerate() {
                    pad(out, depth + 1);
                    out.push_str(&format!("\"{key}\": "));
                    value.render_into(out, depth + 1);
                    out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v.to_string())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v.to_string())
    }
}

/// The command line of the two trajectory binaries: `--filter <substr>`
/// runs the scenarios whose name contains the substring and only prints
/// them; without it the binary rewrites its file.
#[derive(Debug, Default, PartialEq)]
pub struct GateArgs {
    /// `--filter`: substring a scenario name must contain.
    pub filter: Option<String>,
}

impl GateArgs {
    /// Parses the arguments after the program name; the error is the
    /// usage message.
    pub(crate) fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut parsed = GateArgs::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--filter" => parsed.filter = Some(args.next().ok_or("--filter needs a value")?),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(parsed)
    }

    /// `GateArgs::parse` over the process arguments; prints the usage
    /// message and exits 2 on misuse.
    pub fn from_env(bin: &str) -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|usage| {
            eprintln!("{bin}: {usage} (usage: {bin} [--filter <substr>])");
            std::process::exit(2)
        })
    }

    /// Whether the scenario `name` is selected.
    pub(crate) fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Finishes a run that produced `records` scenario records rendered
    /// into `doc`: a filtered run is print-only, anything else rewrites
    /// `file`. Returns whether the run succeeded.
    pub fn finish(&self, file: &str, records: usize, doc: &Json) -> bool {
        if let Some(f) = &self.filter {
            if records == 0 {
                eprintln!("no scenario matched the filter '{f}'");
            } else {
                println!("filtered run: {file} not written");
            }
            return records > 0;
        }
        match fs::write(file, doc.render()) {
            Ok(()) => {
                println!("{file}: written");
                true
            }
            Err(e) => {
                eprintln!("cannot write {file}: {e}");
                false
            }
        }
    }
}

/// The lines on which `committed` and `fresh` differ, as `- line N:` /
/// `+ line N:` report lines (empty when the texts are equal). Texts of
/// equal length are compared line by line; otherwise the common head
/// and tail are trimmed, so a removed or added record reports only
/// itself.
fn diff_lines(committed: &str, fresh: &str) -> Vec<String> {
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let line = |sign: char, at: usize, l: &str| format!("{sign} line {}: {}", at + 1, l.trim());
    let mut report = Vec::new();
    if old.len() == new.len() {
        for (at, (a, b)) in old
            .iter()
            .zip(&new)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
        {
            report.extend([line('-', at, a), line('+', at, b)]);
        }
    } else {
        let head = old.iter().zip(&new).take_while(|(a, b)| a == b).count();
        let tail = old[head..]
            .iter()
            .rev()
            .zip(new[head..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        for (sign, lines) in [('-', &old), ('+', &new)] {
            let changed = lines[head..lines.len() - tail].iter().enumerate();
            report.extend(changed.map(|(i, l)| line(sign, head + i, l)));
        }
    }
    if report.is_empty() && committed != fresh {
        report.push("the files differ only in line endings".to_string());
    }
    report
}

/// Compares `fresh` with the file at `path` byte for byte; the error is
/// the report to print, naming every differing line.
pub fn check_file(path: &Path, fresh: &str) -> Result<(), String> {
    let committed =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let diff = diff_lines(&committed, fresh);
    if diff.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} is not what this run produces (- committed, + fresh):\n{}",
        path.display(),
        diff.join("\n")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn document(points: &[(&str, f64)]) -> String {
        Json::Obj(vec![
            ("suite", "demo \"quoted\"".into()),
            ("groups", Json::Arr(vec![4usize.into(), 4usize.into()])),
            (
                "scenarios",
                Json::Arr(
                    points
                        .iter()
                        .map(|&(name, z)| {
                            Json::Obj(vec![("name", name.into()), ("z", Json::fixed(z, 3))])
                        })
                        .collect(),
                ),
            ),
            ("predicted", Json::Null),
            ("agrees", true.into()),
        ])
        .render()
    }

    #[test]
    fn json_renders_one_record_per_line_in_order() {
        assert_eq!(
            document(&[("a", 1.0)]),
            "{\n  \"suite\": \"demo \\\"quoted\\\"\",\n  \"groups\": [4, 4],\n  \"scenarios\": [\n    \
             {\n      \"name\": \"a\",\n      \"z\": 1.000\n    }\n  ],\n  \
             \"predicted\": null,\n  \"agrees\": true\n}\n"
        );
    }

    #[test]
    fn gate_args_take_a_filter_and_nothing_else() {
        let parse = |args: &[&str]| GateArgs::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(GateArgs::default()));
        let filtered = parse(&["--filter", "par_"]).expect("a filter parses");
        assert!(filtered.wants("par_aggregate") && !filtered.wants("sort_spill"));
        assert_eq!(
            parse(&["--check", "BENCH_ops.json"]),
            Err("unknown argument '--check'".to_string()),
            "the committed files are gated by tests/gates.rs"
        );
        for bad in [&["--filter"][..], &["--quick"], &["--filter", "par_", "x"]] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        // A filter that selects nothing is a failed run, not an empty one.
        assert!(!filtered.finish("unused.json", 0, &Json::Null));
    }

    #[test]
    fn check_passes_on_itself_and_names_every_differing_line() {
        let path = std::env::temp_dir().join(format!("cordoba-check-{}.json", std::process::id()));
        let committed = document(&[("a", 1.0), ("b", 2.5)]);
        fs::write(&path, &committed).expect("write the temp file");
        check_file(&path, &committed).expect("a document reproduces itself");

        let digits = check_file(&path, &document(&[("a", 1.001), ("b", 2.501)])).unwrap_err();
        for changed in [
            "- line 7: \"z\": 1.000",
            "+ line 7: \"z\": 1.001",
            "- line 11: \"z\": 2.500",
            "+ line 11: \"z\": 2.501",
        ] {
            assert!(digits.contains(changed), "{digits}");
        }
        assert_eq!(
            digits.lines().count(),
            5,
            "only the changed lines: {digits}"
        );

        let removed = check_file(&path, &document(&[("a", 1.0)])).unwrap_err();
        assert!(removed.contains("- line 10: \"name\": \"b\""), "{removed}");
        assert!(!removed.contains("+ line 10"), "{removed}");

        let added = check_file(&path, &document(&[("a", 1.0), ("b", 2.5), ("c", 3.0)]));
        let added = added.unwrap_err();
        assert!(added.contains("+ line 14: \"name\": \"c\""), "{added}");

        fs::remove_file(&path).expect("remove the temp file");
        let missing = check_file(&path, &committed).unwrap_err();
        assert!(missing.contains(&path.display().to_string()), "{missing}");
    }

    #[test]
    fn csv_round_trip() {
        std::env::set_var(
            "CORDOBA_RESULTS",
            std::env::temp_dir().join("cordoba-test-results"),
        );
        let path = write_csv("test.csv", "a,b", &["1,2".into(), "3,4".into()]);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::env::remove_var("CORDOBA_RESULTS");
    }

    #[test]
    fn chart_renders_all_series() {
        let s = ascii_chart(
            "t",
            "z",
            &[
                ("one".into(), vec![(1.0, 0.5), (2.0, 1.0)]),
                ("two".into(), vec![(1.0, 0.25)]),
            ],
        );
        assert!(s.contains("## t"));
        assert!(s.contains("one"));
        assert!(s.contains("two"));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn zero_series_does_not_panic() {
        let s = ascii_chart("empty", "y", &[("z".into(), vec![(0.0, 0.0)])]);
        assert!(s.contains("empty"));
    }
}
