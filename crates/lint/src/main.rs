//! `cordoba-lint`: the workspace's source-level correctness gate.
//!
//! ```text
//! cargo run --release -p cordoba-lint            # lint the workspace
//! ```
//!
//! Takes no argument. Exit code 0 when clean, 1 on violations (one
//! `file:line: [rule] message` offender line each), 2 on an argument or
//! an IO error. `cargo test -p cordoba-lint` runs the same gate: the
//! workspace must be clean, and each seeded violation, linted from a
//! scratch root of its own, must make this binary exit 1 naming its rule.

use cordoba_lint::{lint_workspace, Config};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // Prefer the invocation directory (the repo root, or a scratch root
    // laid out like it); fall back to the compile-time manifest location
    // for `cargo run` from anywhere inside the tree.
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() && cwd.join("Cargo.toml").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: cordoba-lint (takes no argument; lints the workspace)");
        return ExitCode::from(2);
    }
    match lint_workspace(&workspace_root(), &Config::workspace()) {
        Ok((findings, scanned)) => {
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("cordoba-lint: {scanned} files scanned, 0 violations");
                ExitCode::SUCCESS
            } else {
                println!(
                    "cordoba-lint: {scanned} files scanned, {} violation(s)",
                    findings.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("cordoba-lint: {err}");
            ExitCode::from(2)
        }
    }
}
