//! Source-level correctness lints for the cordoba workspace.
//!
//! The engine's hottest invariants live in hand-rolled atomics and
//! `unsafe` gathers; this crate is the static half of the correctness
//! gate (the dynamic half is the `shuttle-lite` model checker and the
//! sanitizer CI legs). Ten rules, all line-oriented over a
//! comment/string-stripped view of each file:
//!
//! 1. **`unsafe` hygiene** — every line containing the `unsafe` keyword
//!    must carry a `// SAFETY:` comment on the same line or within the
//!    three lines above, and must live in an allowlisted module (today:
//!    `storage::page`). New `unsafe` anywhere else fails the lint.
//! 2. **Panic-free hot crates** — no `.unwrap()` / `.expect(` /
//!    `panic!` / `unreachable!` / `todo!` / `unimplemented!` in
//!    non-test `exec` / `engine` / `storage` source. Infallible sites
//!    escape with `// lint: allow(reason)` on the same or previous
//!    line; everything else must propagate a typed `ExecError`.
//!    (`assert!` / `debug_assert!` are contract checks, not error
//!    handling, and stay legal.)
//! 3. **Deterministic time** — no `std::time::Instant` / `SystemTime`
//!    in simulator-deterministic modules (`core`, `sim`, `storage`,
//!    `exec`, `engine`, `workload`), excepting the real-thread modules
//!    (`engine::thread_exec`). Virtual time comes from the scheduler;
//!    wall clocks there would break replayability.
//! 4. **`Ordering::Relaxed` allowlist** — every `Ordering::Relaxed`
//!    outside the audited files (`exec::memory`'s monotone peak CAS,
//!    `exec::parallel`'s morsel counter) is flagged, so a new Relaxed
//!    access has to be argued into the allowlist or strengthened.
//! 5. **Oracle out of the engine** — no `reference::execute*`, no
//!    tree-walk `.eval(` (`ScalarExpr::eval` / `Predicate::eval`) and
//!    no `like_match(` (all defined beside the oracle in
//!    `exec::reference`) in non-test `exec` / `engine` source: the
//!    tuple-at-a-time reference executor and its evaluator are the
//!    denominator tests compare against, never a code path (a fallback
//!    to them silently measures and ships the wrong engine).
//! 6. **One run loop** — in non-test `engine` source, `Simulator::new`
//!    and a `DispatcherTask { .. }` literal appear only in the run module
//!    (`engine::run`): every simulator-side entry point is a
//!    configuration of `engine::Run`, never a second copy of "build
//!    core, build simulator, spawn dispatcher", and a plan on real
//!    threads runs in `exec::wiring`'s local driver, never in a run loop
//!    of the engine's own.
//! 7. **One thread driver** — in non-test `exec` / `engine` source,
//!    `thread::scope` / `thread::spawn` appear only in `exec::wiring`
//!    (the local driver, which builds each morsel group worker's shell
//!    on an OS thread of its own) and `engine::thread_exec` (query-level
//!    threads and the sharing seam's consumers): operators run on threads
//!    by being wired into that driver, never through a second executor
//!    with loops of its own.
//! 8. **One operator shell** — in non-test `exec` / `engine` source,
//!    `impl .. Task for` appears only in the shell (`ops::shell`) and the
//!    engine's own control tasks (`engine::run`'s arrivals,
//!    `engine::dispatcher`): every operator — scan, sink and merge join
//!    included, a morsel group's workers and merge too, and any helper
//!    the wiring or the sharing seam needs — is a `Kernel` the shell
//!    runs, so the step protocol, the input check and the failure path
//!    are not spelled out a second time.
//! 9. **One sharing model** — outside `cordoba-core`, non-test source
//!    names `GroupMember::new`, `SharingEvaluator::from_parts` and
//!    `SharingEvaluator::heterogeneous` only in `engine::policy`, whose
//!    `sharing_group` turns profiled queries into the model's group:
//!    a bench or a figure that wants a predicted `Z` calls it (or
//!    `SharingEvaluator::homogeneous` on a plan), never a second pricing
//!    with its own wide member and residual constant.
//! 10. **One spill I/O** — in non-test `storage` / `exec` / `engine`
//!     source only `storage::spill` names `std::fs` / `File`, and within
//!     `exec` only `exec::memory` opens a spill stream
//!     (`SpillWriter::create*`, `SpillFile::into_reader*`): a stream's
//!     frame is granted where it is opened, an I/O error becomes a query
//!     fault there, and no operator grows a file path of its own.
//!
//! The checks are deliberately lexical: no rustc plumbing, zero
//! dependencies, fast enough to run on every CI push. The stripping
//! pass understands line/block comments (nested), string/char/raw
//! literals, and lifetimes, so tokens inside literals or docs never
//! trip a rule.

#![warn(unreachable_pub)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Which lint rule a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    UnsafeNeedsSafety,
    /// `unsafe` outside the allowlisted modules.
    UnsafeOutsideAllowlist,
    /// `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in non-test hot-crate code without a
    /// `// lint: allow(reason)` escape.
    PanicSite,
    /// `Instant` / `SystemTime` in a simulator-deterministic module.
    NondeterministicClock,
    /// `Ordering::Relaxed` outside the audited allowlist.
    RelaxedOrdering,
    /// `reference::execute*`, a tree-walk `.eval(` or its `like_match(`
    /// called from non-test engine code.
    OracleInEngine,
    /// A `Simulator` or dispatcher built outside the engine's run module.
    OneRunLoop,
    /// OS threads started outside the two thread-driver modules.
    OneThreadDriver,
    /// An operator implementing `Task` itself instead of `Kernel`.
    OneOperatorShell,
    /// A sharing group priced outside `engine::policy`.
    OneSharingModel,
    /// File I/O outside `storage::spill`, or a spill stream opened
    /// outside `exec::memory`.
    OneSpillIo,
}

impl Rule {
    /// Stable machine-readable rule name (printed in offender lines).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "unsafe-needs-safety",
            Rule::UnsafeOutsideAllowlist => "unsafe-outside-allowlist",
            Rule::PanicSite => "panic-site",
            Rule::NondeterministicClock => "nondeterministic-clock",
            Rule::RelaxedOrdering => "relaxed-ordering",
            Rule::OracleInEngine => "oracle-in-engine",
            Rule::OneRunLoop => "one-run-loop",
            Rule::OneThreadDriver => "one-thread-driver",
            Rule::OneOperatorShell => "one-operator-shell",
            Rule::OneSharingModel => "one-sharing-model",
            Rule::OneSpillIo => "one-spill-io",
        }
    }
}

/// One rule violation at a file:line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation with the offending token.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Lint policy: which files each rule applies to. Paths are
/// workspace-relative with forward slashes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files allowed to contain `unsafe` (still need `// SAFETY:`).
    pub unsafe_allowed_files: Vec<String>,
    /// Path prefixes whose non-test code must be panic-free.
    pub panic_free_prefixes: Vec<String>,
    /// Path prefixes that must not read wall clocks.
    pub deterministic_prefixes: Vec<String>,
    /// Files exempt from the deterministic-time rule (real-thread
    /// modules measured with honest wall clocks).
    pub deterministic_exceptions: Vec<String>,
    /// Files allowed to use `Ordering::Relaxed` (audited sites).
    pub relaxed_allowed_files: Vec<String>,
    /// Path prefixes whose non-test code must not call the reference
    /// executor or its tree-walk evaluator.
    pub oracle_free_prefixes: Vec<String>,
    /// Files under those prefixes that may name it: the oracle's own
    /// definition and test-only modules gated from their parent.
    pub oracle_allowed_files: Vec<String>,
    /// Path prefixes that hold exactly one simulator-side run loop.
    pub run_loop_prefixes: Vec<String>,
    /// The run module(s): the only files under those prefixes that may
    /// build a `Simulator` or construct the `DispatcherTask`.
    pub run_loop_files: Vec<String>,
    /// Path prefixes whose non-test code starts OS threads only in the
    /// thread-driver files.
    pub thread_driver_prefixes: Vec<String>,
    /// The files that may call `thread::scope` / `thread::spawn`.
    pub thread_driver_files: Vec<String>,
    /// Path prefixes whose non-test code holds operators: kernels, run
    /// by the one shell.
    pub operator_prefixes: Vec<String>,
    /// The files under those prefixes that may `impl Task`: the shell,
    /// the engine's control tasks, and test-only modules gated from
    /// their parent.
    pub operator_task_files: Vec<String>,
    /// Path prefixes that own the sharing model and may build its
    /// groups from raw parts.
    pub sharing_model_prefixes: Vec<String>,
    /// The files outside those prefixes that may: the one function
    /// pricing a group from profiled queries.
    pub sharing_model_files: Vec<String>,
    /// Path prefixes whose non-test code touches the file system only
    /// in the spill-file modules.
    pub file_io_prefixes: Vec<String>,
    /// The files under those prefixes that may name `std::fs` / `File`.
    pub file_io_files: Vec<String>,
    /// Path prefixes whose non-test code opens spill streams only in
    /// the spill-stream modules.
    pub spill_stream_prefixes: Vec<String>,
    /// The files under those prefixes that may: where a stream's frame
    /// is granted.
    pub spill_stream_files: Vec<String>,
}

impl Config {
    /// The workspace policy this repo is linted against.
    pub fn workspace() -> Self {
        Config {
            unsafe_allowed_files: vec!["crates/storage/src/page.rs".into()],
            panic_free_prefixes: vec![
                "crates/exec/src".into(),
                "crates/engine/src".into(),
                "crates/storage/src".into(),
            ],
            deterministic_prefixes: vec![
                "crates/core/src".into(),
                "crates/sim/src".into(),
                "crates/storage/src".into(),
                "crates/exec/src".into(),
                "crates/engine/src".into(),
                "crates/workload/src".into(),
            ],
            deterministic_exceptions: vec![
                // Real-thread executors: wall-clock timing is the point.
                "crates/engine/src/thread_exec.rs".into(),
            ],
            relaxed_allowed_files: vec![
                // Monotone peak CAS + morsel hand-out counter: audited
                // in the shuttle-lite model-check suite.
                "crates/exec/src/memory.rs".into(),
                "crates/exec/src/parallel.rs".into(),
                // Work-claim fetch_add counters, same shape as the
                // dispenser's model-checked claim path; results are
                // placed by claimed index once the workers are joined.
                "crates/engine/src/thread_exec.rs".into(),
                // Spill-file name uniquifier: a counter with no
                // synchronization role at all.
                "crates/storage/src/spill.rs".into(),
            ],
            oracle_free_prefixes: vec!["crates/exec/src".into(), "crates/engine/src".into()],
            oracle_allowed_files: vec![
                "crates/exec/src/reference.rs".into(),
                // `#[cfg(test)] mod join_properties;` in ops/mod.rs: the
                // whole file is test code.
                "crates/exec/src/ops/join_properties.rs".into(),
            ],
            run_loop_prefixes: vec!["crates/engine/src".into()],
            run_loop_files: vec!["crates/engine/src/run.rs".into()],
            thread_driver_prefixes: vec!["crates/exec/src".into(), "crates/engine/src".into()],
            thread_driver_files: vec![
                "crates/exec/src/wiring.rs".into(),
                "crates/engine/src/thread_exec.rs".into(),
            ],
            operator_prefixes: vec!["crates/exec/src/".into(), "crates/engine/src/".into()],
            operator_task_files: vec![
                "crates/exec/src/ops/shell.rs".into(),
                // `#[cfg(test)] mod testutil;` in ops/mod.rs.
                "crates/exec/src/ops/testutil.rs".into(),
                // Control, not operators: arrivals and the dispatcher.
                "crates/engine/src/run.rs".into(),
                "crates/engine/src/dispatcher.rs".into(),
            ],
            sharing_model_prefixes: vec!["crates/core/src".into()],
            sharing_model_files: vec!["crates/engine/src/policy.rs".into()],
            file_io_prefixes: vec![
                "crates/storage/src".into(),
                "crates/exec/src".into(),
                "crates/engine/src".into(),
            ],
            file_io_files: vec!["crates/storage/src/spill.rs".into()],
            spill_stream_prefixes: vec!["crates/exec/src".into()],
            spill_stream_files: vec!["crates/exec/src/memory.rs".into()],
        }
    }
}

fn has_prefix(file: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| file.starts_with(p.as_str()))
}

fn listed(file: &str, files: &[String]) -> bool {
    files.iter().any(|f| f == file)
}

/// One source line split into its code and comment halves.
struct StrippedLine {
    /// Code with comment bodies and string/char contents blanked.
    code: String,
    /// Concatenated comment text on the line (for `SAFETY:` /
    /// `lint: allow` detection).
    comment: String,
}

/// Lexer state that survives line breaks.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    /// Inside `/* */`, with nesting depth.
    Block(u32),
    /// Inside a `"` string.
    Str,
    /// Inside a raw string with `n` hashes.
    RawStr(u32),
}

/// Strips comments and literal bodies while preserving line structure.
/// Comment text is captured separately so adjacency rules (`SAFETY:`,
/// `lint: allow`) can still see it.
fn strip(source: &str) -> Vec<StrippedLine> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in source.lines() {
        let b = raw.as_bytes();
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            match mode {
                Mode::Block(depth) => {
                    if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        mode = if depth > 1 {
                            Mode::Block(depth - 1)
                        } else {
                            Mode::Code
                        };
                        i += 2;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(b[i] as char);
                        i += 1;
                    }
                }
                Mode::Str => {
                    if b[i] == b'\\' {
                        i += 2; // escape: skip the escaped byte
                    } else if b[i] == b'"' {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if b[i] == b'"' {
                        let h = hashes as usize;
                        if b[i + 1..].len() >= h && b[i + 1..i + 1 + h].iter().all(|&c| c == b'#') {
                            code.push('"');
                            mode = Mode::Code;
                            i += 1 + h;
                            continue;
                        }
                    }
                    code.push(' ');
                    i += 1;
                }
                Mode::Code => {
                    match b[i] {
                        b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                            // Line comment: rest of the line is comment.
                            comment.push_str(&raw[i + 2..]);
                            i = b.len();
                        }
                        b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                            mode = Mode::Block(1);
                            i += 2;
                        }
                        b'"' => {
                            code.push('"');
                            mode = Mode::Str;
                            i += 1;
                        }
                        b'r' | b'b'
                            if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') =>
                        {
                            // r"..." / r#"..."# / b"..." raw-ish starts.
                            let mut j = i + 1;
                            if b[i] == b'b' && j < b.len() && b[j] == b'r' {
                                j += 1;
                            }
                            let mut hashes = 0u32;
                            while j < b.len() && b[j] == b'#' {
                                hashes += 1;
                                j += 1;
                            }
                            if j < b.len() && b[j] == b'"' {
                                code.push('"');
                                mode = if hashes > 0 || b[i] == b'r' {
                                    Mode::RawStr(hashes)
                                } else {
                                    Mode::Str
                                };
                                i = j + 1;
                            } else {
                                code.push(b[i] as char);
                                i += 1;
                            }
                        }
                        b'\'' => {
                            // Char literal vs lifetime: a literal is
                            // '\..' or 'x' followed by a closing quote.
                            let is_char = i + 1 < b.len()
                                && (b[i + 1] == b'\\' || (i + 2 < b.len() && b[i + 2] == b'\''));
                            if is_char {
                                let mut j = i + 1;
                                if b[j] == b'\\' {
                                    j += 2; // skip escape lead
                                    while j < b.len() && b[j] != b'\'' {
                                        j += 1;
                                    }
                                } else {
                                    j += 1;
                                }
                                code.push('\'');
                                code.push(' ');
                                code.push('\'');
                                i = (j + 1).min(b.len());
                            } else {
                                code.push('\'');
                                i += 1;
                            }
                        }
                        c => {
                            code.push(c as char);
                            i += 1;
                        }
                    }
                }
            }
        }
        out.push(StrippedLine { code, comment });
    }
    out
}

/// Marks lines inside `#[cfg(test)]`-gated items (the module or fn that
/// follows the attribute, brace-balanced on stripped code).
fn test_region_mask(lines: &[StrippedLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim();
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            // Skip forward to the gated item's opening brace, then
            // mask until it balances.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for ch in lines[j].code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether `needle` occurs in `hay` bounded by non-identifier chars.
fn word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Whether `code` is the header of an `impl .. Task for ..` (the trait
/// named `Task` itself, by any path — not `SubTask`).
fn impls_task(code: &str) -> bool {
    code.match_indices("Task for ").any(|(at, _)| {
        let before = code[..at].chars().next_back();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// Whether `code` builds a `name { .. }` struct literal. A `struct` /
/// `impl` / `impl .. for` header naming the type is not a construction.
fn constructs(code: &str, name: &str) -> bool {
    code.match_indices(&format!("{name} {{")).any(|(at, _)| {
        let before = code[..at].trim_end();
        !["struct", "impl", "for"]
            .iter()
            .any(|kw| before.ends_with(kw))
    })
}

/// Whether line `idx` (or the line above it) carries a
/// `lint: allow(reason)` escape comment.
fn has_allow(lines: &[StrippedLine], idx: usize) -> bool {
    let here = &lines[idx].comment;
    if here.contains("lint: allow(") {
        return true;
    }
    idx > 0 && lines[idx - 1].comment.contains("lint: allow(")
}

/// Whether a `SAFETY:` comment is adjacent to line `idx` (same line or
/// up to three lines above — comments may span the proof).
fn has_safety(lines: &[StrippedLine], idx: usize) -> bool {
    let lo = idx.saturating_sub(3);
    lines[lo..=idx]
        .iter()
        .any(|l| l.comment.contains("SAFETY:"))
}

/// Lints one file's source. `file` is the workspace-relative path used
/// for rule scoping and reporting.
pub fn lint_source(file: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let lines = strip(source);
    let tests = test_region_mask(&lines);
    let mut findings = Vec::new();
    let mut push = |line: usize, rule: Rule, message: String| {
        findings.push(Finding {
            file: file.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };
    let panic_scoped = has_prefix(file, &cfg.panic_free_prefixes);
    let det_scoped = has_prefix(file, &cfg.deterministic_prefixes)
        && !listed(file, &cfg.deterministic_exceptions);
    let oracle_scoped =
        has_prefix(file, &cfg.oracle_free_prefixes) && !listed(file, &cfg.oracle_allowed_files);
    let run_loop_scoped =
        has_prefix(file, &cfg.run_loop_prefixes) && !listed(file, &cfg.run_loop_files);
    let thread_scoped =
        has_prefix(file, &cfg.thread_driver_prefixes) && !listed(file, &cfg.thread_driver_files);
    let operator_scoped =
        has_prefix(file, &cfg.operator_prefixes) && !listed(file, &cfg.operator_task_files);
    let sharing_scoped =
        !has_prefix(file, &cfg.sharing_model_prefixes) && !listed(file, &cfg.sharing_model_files);
    let file_io_scoped =
        has_prefix(file, &cfg.file_io_prefixes) && !listed(file, &cfg.file_io_files);
    let spill_stream_scoped =
        has_prefix(file, &cfg.spill_stream_prefixes) && !listed(file, &cfg.spill_stream_files);
    for (i, l) in lines.iter().enumerate() {
        let code = &l.code;
        // Rule 1: unsafe hygiene (workspace-wide, tests included —
        // unchecked reads in a test are as unsound as anywhere).
        if word(code, "unsafe") {
            if !listed(file, &cfg.unsafe_allowed_files) {
                push(
                    i,
                    Rule::UnsafeOutsideAllowlist,
                    "`unsafe` outside the allowlisted modules (storage::page); \
                     extend Config::workspace() only with a reviewed bounds proof"
                        .into(),
                );
            }
            if !has_safety(&lines, i) {
                push(
                    i,
                    Rule::UnsafeNeedsSafety,
                    "`unsafe` without an adjacent `// SAFETY:` comment stating the proof".into(),
                );
            }
        }
        if tests[i] {
            continue; // remaining rules apply to non-test code only
        }
        // Rule 2: panic-free hot crates.
        if panic_scoped && !has_allow(&lines, i) {
            for tok in [
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ] {
                if code.contains(tok) {
                    push(
                        i,
                        Rule::PanicSite,
                        format!(
                            "`{tok}` in non-test hot-path code: propagate a typed ExecError, \
                             or mark the site infallible with `// lint: allow(reason)`"
                        ),
                    );
                }
            }
        }
        // Rule 3: deterministic time.
        if det_scoped && (word(code, "Instant") || word(code, "SystemTime")) {
            push(
                i,
                Rule::NondeterministicClock,
                "wall-clock read in a simulator-deterministic module; use virtual time \
                 (VTime) or move the code to a real-thread module"
                    .into(),
            );
        }
        // Rule 4: Relaxed-ordering allowlist.
        if code.contains("Ordering::Relaxed") && !listed(file, &cfg.relaxed_allowed_files) {
            push(
                i,
                Rule::RelaxedOrdering,
                "`Ordering::Relaxed` outside the audited allowlist; strengthen the ordering \
                 or argue the site into Config::workspace() with a model-check test"
                    .into(),
            );
        }
        // Rule 5: the oracle is a test denominator, not a code path.
        for (tok, instead) in [
            (
                "reference::execute",
                "run the plan through `wiring` (e.g. `wiring::run_serial`)",
            ),
            (
                ".eval(",
                "compile the expression (`cordoba_exec::CompiledExpr` / `CompiledPredicate`)",
            ),
            (
                "like_match(",
                "compile the predicate (`cordoba_exec::CompiledPredicate` splits the pattern once)",
            ),
        ] {
            if oracle_scoped && code.contains(tok) {
                push(
                    i,
                    Rule::OracleInEngine,
                    format!(
                        "`{tok}` in non-test engine code; {instead} — the reference \
                         executor and its tree-walk evaluator are for tests"
                    ),
                );
            }
        }
        // Rule 6: one run loop.
        for (hit, tok) in [
            (
                run_loop_scoped && code.contains("Simulator::new"),
                "Simulator::new",
            ),
            (
                run_loop_scoped && constructs(code, "DispatcherTask"),
                "DispatcherTask {",
            ),
        ] {
            if hit {
                push(
                    i,
                    Rule::OneRunLoop,
                    format!(
                        "`{tok}` outside the engine's run module; configure `engine::Run` \
                         (source, admission bound, capture, stop) instead of a second run loop"
                    ),
                );
            }
        }
        // Rule 7: one thread driver.
        for tok in ["thread::scope", "thread::spawn"] {
            if thread_scoped && code.contains(tok) {
                push(
                    i,
                    Rule::OneThreadDriver,
                    format!(
                        "`{tok}` outside the thread drivers; wire the operator into \
                         `wiring::run_local` (or `engine::thread_exec`) instead of a second \
                         threaded executor"
                    ),
                );
            }
        }
        // Rule 8: one operator shell.
        if operator_scoped && impls_task(code) {
            push(
                i,
                Rule::OneOperatorShell,
                "`impl Task` outside the shell; implement `ops::shell::Kernel` and let \
                 the one `OperatorShell` run it (step protocol, input check and failure \
                 path live there)"
                    .into(),
            );
        }
        // Rule 9: one sharing model.
        for tok in [
            "GroupMember::new",
            "SharingEvaluator::from_parts",
            "SharingEvaluator::heterogeneous",
        ] {
            if sharing_scoped && code.contains(tok) {
                push(
                    i,
                    Rule::OneSharingModel,
                    format!(
                        "`{tok}` outside cordoba-core and `engine::policy`; price the group \
                         with `policy::sharing_group` (wide member, `s / c`, residual ratio \
                         live there) instead of a second pricing"
                    ),
                );
            }
        }
        // Rule 10: one spill I/O.
        for (hit, tok) in [
            (file_io_scoped && word(code, "fs"), "fs"),
            (file_io_scoped && word(code, "File"), "File"),
            (
                spill_stream_scoped && code.contains("SpillWriter::create"),
                "SpillWriter::create",
            ),
            (
                spill_stream_scoped && code.contains(".into_reader"),
                ".into_reader",
            ),
        ] {
            if hit {
                push(
                    i,
                    Rule::OneSpillIo,
                    format!(
                        "`{tok}` outside the spill modules; files are `storage::spill`'s, and \
                         an operator opens a stream through `SpillContext::io` (`exec::memory`), \
                         which grants its frame and types its errors"
                    ),
                );
            }
        }
    }
    findings
}

/// Recursively collects `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every crate source tree under `root` (`crates/*/src` plus the
/// facade `src/`). Returns findings plus the number of files scanned.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                rs_files(&src, &mut files)?;
            }
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        rs_files(&facade, &mut files)?;
    }
    let mut findings = Vec::new();
    let scanned = files.len();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &source, cfg));
    }
    Ok((findings, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config that scopes every rule onto the probed file name —
    /// except the operator-shell rule, which takes the fixtures of other
    /// rules (a dispatcher's `impl Task`) for operators; its own test
    /// scopes it.
    fn cfg_for(file: &str) -> Config {
        Config {
            unsafe_allowed_files: vec![],
            panic_free_prefixes: vec![file.to_string()],
            deterministic_prefixes: vec![file.to_string()],
            deterministic_exceptions: vec![],
            relaxed_allowed_files: vec![],
            oracle_free_prefixes: vec![file.to_string()],
            oracle_allowed_files: vec![],
            run_loop_prefixes: vec![file.to_string()],
            run_loop_files: vec![],
            thread_driver_prefixes: vec![file.to_string()],
            thread_driver_files: vec![],
            operator_prefixes: vec![],
            operator_task_files: vec![],
            sharing_model_prefixes: vec![],
            sharing_model_files: vec![],
            file_io_prefixes: vec![],
            file_io_files: vec![],
            spill_stream_prefixes: vec![],
            spill_stream_files: vec![],
        }
    }

    fn rules(src: &str) -> Vec<Rule> {
        lint_source("probe.rs", src, &cfg_for("probe.rs"))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn seeded_unsafe_without_safety_is_caught() {
        let got = rules("fn f() { unsafe { core::hint::unreachable_unchecked() } }");
        assert!(got.contains(&Rule::UnsafeOutsideAllowlist), "{got:?}");
        assert!(got.contains(&Rule::UnsafeNeedsSafety), "{got:?}");
    }

    #[test]
    fn safety_comment_within_three_lines_satisfies_rule_one_half() {
        let src = "// SAFETY: i is proved in range above.\n\
                   // (second proof line)\n\
                   fn f(p: *const u8) { let _ = unsafe { *p }; }";
        let got = rules(src);
        assert!(!got.contains(&Rule::UnsafeNeedsSafety), "{got:?}");
        // Still outside the allowlist.
        assert!(got.contains(&Rule::UnsafeOutsideAllowlist), "{got:?}");
    }

    #[test]
    fn allowlisted_file_with_safety_is_clean() {
        let mut cfg = cfg_for("page.rs");
        cfg.unsafe_allowed_files = vec!["page.rs".into()];
        let src = "// SAFETY: bounds proved per page.\nfn f(p: *const u8) { unsafe { p.read() }; }";
        let got = lint_source("page.rs", src, &cfg);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn seeded_panic_sites_are_caught() {
        for src in [
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
            "fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }",
            "fn f() { panic!(\"boom\") }",
            "fn f() { unreachable!() }",
            "fn f() { todo!() }",
            "fn f() { unimplemented!() }",
        ] {
            let got = rules(src);
            assert_eq!(got, vec![Rule::PanicSite], "{src}");
        }
    }

    #[test]
    fn lint_allow_escape_suppresses_panic_rule() {
        let same = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(len checked above)";
        assert!(rules(same).is_empty());
        let above = "// lint: allow(constructor guarantees Some)\n\
                     fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules(above).is_empty());
    }

    #[test]
    fn unwrap_or_variants_and_asserts_are_legal() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   assert!(true);\n\
                   debug_assert_eq!(1, 1);\n\
                   x.unwrap_or(0).max(x.unwrap_or_else(|| 1)).max(x.unwrap_or_default())\n\
                   }";
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn test_modules_are_exempt_from_panic_rule() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[test]\n\
                   fn t() { Some(1).unwrap(); panic!(\"fine in tests\"); }\n\
                   }";
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn panic_after_test_module_is_still_caught() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { Some(1).unwrap(); }\n\
                   }\n\
                   fn prod(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules(src), vec![Rule::PanicSite]);
    }

    #[test]
    fn tokens_inside_strings_and_comments_do_not_trip() {
        let src = "fn f() -> &'static str {\n\
                   // This comment mentions panic! and .unwrap() and unsafe.\n\
                   /* block comment: Ordering::Relaxed, Instant */\n\
                   \"panic! .unwrap() unsafe Ordering::Relaxed Instant SystemTime\"\n\
                   }";
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "fn f() -> &'static str { r#\"panic! unsafe \"quoted\" Instant\"# }";
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn seeded_clock_reads_are_caught() {
        let got = rules("use std::time::Instant;\nfn f() { let _t = Instant::now(); }");
        assert_eq!(got, vec![Rule::NondeterministicClock; 2]);
        let got = rules("fn f() { let _ = std::time::SystemTime::now(); }");
        assert_eq!(got, vec![Rule::NondeterministicClock]);
    }

    #[test]
    fn clock_rule_skips_exempt_and_unscoped_files() {
        let mut cfg = cfg_for("sim.rs");
        cfg.deterministic_exceptions = vec!["sim.rs".into()];
        let src = "use std::time::Instant;";
        assert!(lint_source("sim.rs", src, &cfg).is_empty());
        assert!(lint_source("other.rs", src, &cfg).is_empty());
    }

    #[test]
    fn identifier_containing_instant_does_not_trip() {
        assert!(rules("fn f(instantaneous: u8, x: InstantLike) {}").is_empty());
    }

    #[test]
    fn seeded_relaxed_ordering_is_caught() {
        let got = rules("fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }");
        assert_eq!(got, vec![Rule::RelaxedOrdering]);
    }

    #[test]
    fn relaxed_in_allowlisted_file_is_clean() {
        let mut cfg = cfg_for("memory.rs");
        cfg.relaxed_allowed_files = vec!["memory.rs".into()];
        let src = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }";
        assert!(lint_source("memory.rs", src, &cfg).is_empty());
    }

    #[test]
    fn seeded_oracle_call_is_caught_outside_tests_only() {
        let call = "fn f(c: &Catalog, p: &PhysicalPlan) { crate::reference::execute_table(c, p); }";
        assert_eq!(rules(call), vec![Rule::OracleInEngine]);
        assert_eq!(
            rules("use crate::reference;\nfn f() { reference::execute(c, p); }"),
            vec![Rule::OracleInEngine]
        );
        // So is the oracle's tree-walk evaluator; the compiled
        // programs' `eval_*` methods are not.
        let walk = "fn keep(p: &Predicate, t: &TupleRef<'_>) -> bool { p.eval(t) }";
        assert_eq!(rules(walk), vec![Rule::OracleInEngine]);
        assert!(rules("fn f(e: &CompiledExpr) { e.eval_f64_into(p, s, out) }").is_empty());
        // And the per-row LIKE matcher that evaluator calls.
        let like = "fn keep(s: &str) -> bool { like_match(s, \"%special%requests%\") }";
        assert_eq!(rules(like), vec![Rule::OracleInEngine]);
        // Tests compare against it; other `reference::` items are fine.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{call}\n{walk}\n{like}\n}}");
        assert!(rules(&in_test).is_empty(), "{:?}", rules(&in_test));
        assert!(rules("fn f(r: Rows) -> Rows { reference::canonicalize(r) }").is_empty());
        // The oracle's own file (and unscoped crates) may name it.
        let mut cfg = cfg_for("reference.rs");
        cfg.oracle_allowed_files = vec!["reference.rs".into()];
        for src in [call, walk, like] {
            assert!(lint_source("reference.rs", src, &cfg).is_empty());
            assert!(lint_source("bench.rs", src, &cfg).is_empty());
        }
    }

    #[test]
    fn seeded_second_run_loop_is_caught_outside_the_run_module() {
        let sim = "fn f(n: usize) { let mut sim = Simulator::new(n); sim.run(None); }";
        let spawn = "fn f(core: Core) -> Box<dyn Task> { Box::new(DispatcherTask { core }) }";
        assert_eq!(rules(sim), vec![Rule::OneRunLoop]);
        assert_eq!(rules(spawn), vec![Rule::OneRunLoop]);
        // Naming the type (its definition, its impls) is not building one.
        let defs = "pub struct DispatcherTask {\n}\nimpl DispatcherTask {\n}\n\
                    impl Task for DispatcherTask {\n}";
        assert!(rules(defs).is_empty(), "{:?}", rules(defs));
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{sim}\n{spawn}\n}}");
        assert!(rules(&in_test).is_empty(), "{:?}", rules(&in_test));
        // The run module may do both; no other engine module may do
        // either, the real-thread executor included (its plans run in
        // the wiring's local driver).
        let mut cfg = cfg_for("engine/");
        cfg.run_loop_files = vec!["engine/run.rs".into()];
        for src in [sim, spawn] {
            assert!(lint_source("engine/run.rs", src, &cfg).is_empty());
            assert!(lint_source("bench/x.rs", src, &cfg).is_empty());
            assert_eq!(lint_source("engine/thread_exec.rs", src, &cfg).len(), 1);
        }
    }

    #[test]
    fn seeded_second_thread_driver_is_caught_outside_the_driver_modules() {
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| work()); }); }";
        let spawned = "fn f() { let h = thread::spawn(work); let _ = h.join(); }";
        assert_eq!(rules(scoped), vec![Rule::OneThreadDriver]);
        assert_eq!(rules(spawned), vec![Rule::OneThreadDriver]);
        // Tests may race whatever they like; scoped `s.spawn` alone and
        // the driver files are fine, and so are unscoped crates.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{scoped}\n{spawned}\n}}");
        assert!(rules(&in_test).is_empty(), "{:?}", rules(&in_test));
        assert!(rules("fn f(s: &Scope) { s.spawn(|| work()); }").is_empty());
        let mut cfg = cfg_for("exec/");
        cfg.thread_driver_files = vec!["exec/wiring.rs".into()];
        for src in [scoped, spawned] {
            assert!(lint_source("exec/wiring.rs", src, &cfg).is_empty());
            assert!(lint_source("bench/x.rs", src, &cfg).is_empty());
            assert_eq!(lint_source("exec/parallel.rs", src, &cfg).len(), 1);
        }
    }

    #[test]
    fn seeded_operator_task_is_caught_outside_the_shell() {
        let mut cfg = cfg_for("exec/src/ops/");
        cfg.operator_prefixes = vec!["exec/src/".into()];
        cfg.operator_task_files = vec!["exec/src/ops/shell.rs".into()];
        let rules = |file: &str, src: &str| -> Vec<Rule> {
            let found = lint_source(file, src, &cfg);
            found.into_iter().map(|f| f.rule).collect()
        };
        let own_step = "impl Task for LimitTask {\n    fn step(&mut self) -> Step { go() }\n}";
        let generic = "impl<S: GroupTx<Msg>> cordoba_sim::Task for Worker<S> {\n}";
        for seeded in [own_step, generic] {
            // A morsel group's worker or merge is a kernel too: a task
            // of its own is caught wherever it lands in exec.
            for file in [
                "exec/src/ops/limit.rs",
                "exec/src/ops/par_pipe.rs",
                "exec/src/parallel.rs",
                "exec/src/wiring.rs",
            ] {
                assert_eq!(
                    rules(file, seeded),
                    vec![Rule::OneOperatorShell],
                    "{file}: {seeded}"
                );
            }
            // The shell may; so may code that holds no operators.
            for file in ["exec/src/ops/shell.rs", "engine/run.rs"] {
                assert!(rules(file, seeded).is_empty(), "{file}: {seeded}");
            }
        }
        // A kernel is the way in; other traits named `..Task`, boxed
        // tasks and test sinks are no operator with a step of its own.
        for fine in [
            "impl Kernel for LimitKernel {\n}",
            "impl SubTask for Limit {\n}",
            "fn f(t: Box<dyn Task>) -> Box<dyn Task + Send> { t }",
            "#[cfg(test)]\nmod tests {\nimpl Task for Probe {\n}\n}",
        ] {
            let got = rules("exec/src/ops/limit.rs", fine);
            assert!(got.is_empty(), "{fine}: {got:?}");
        }
    }

    #[test]
    fn seeded_task_outside_ops_is_caught_under_the_workspace_policy() {
        // The rule covers all of exec, not just `ops/`, and the engine:
        // a relay or a collector the wiring needs, or a bridge across
        // the sharing seam, is a kernel or a port too, never a task of
        // its own beside the wiring.
        let cfg = Config::workspace();
        let relay = "struct RelayTask {\n    rx: Receiver<Arc<Page>>,\n}\n\
                     impl Task for RelayTask {\n    fn step(&mut self, ctx: &mut TaskCtx) -> Step {\n\
                     self.pump(ctx)\n    }\n}";
        for file in [
            "crates/exec/src/wiring.rs",
            "crates/exec/src/relay.rs",
            "crates/engine/src/thread_exec.rs",
        ] {
            let got: Vec<Rule> = lint_source(file, relay, &cfg)
                .into_iter()
                .map(|f| f.rule)
                .collect();
            assert_eq!(got, vec![Rule::OneOperatorShell], "{file}");
        }
        for file in [
            "crates/exec/src/ops/shell.rs",
            "crates/engine/src/dispatcher.rs",
        ] {
            assert!(lint_source(file, relay, &cfg).is_empty(), "{file}");
        }
    }

    #[test]
    fn seeded_second_group_pricing_is_caught_outside_the_policy() {
        let mut cfg = cfg_for("bench/");
        cfg.sharing_model_prefixes = vec!["core/src".into()];
        cfg.sharing_model_files = vec!["engine/src/policy.rs".into()];
        let rules = |file: &str, src: &str| -> Vec<Rule> {
            let found = lint_source(file, src, &cfg);
            found.into_iter().map(|f| f.rule).collect()
        };
        let member = "fn m(s: f64) -> GroupMember { GroupMember::new(s / 0.5, vec![]) }";
        let parts = "fn z(m: Vec<GroupMember>) -> f64 {\n\
                     SharingEvaluator::from_parts(vec![], 1.0, m).map_or(0.0, |e| e.speedup(1.0))\n}";
        let hetero =
            "fn g(q: &[(&PlanSpec, NodeId)]) { let _ = SharingEvaluator::heterogeneous(q); }";
        for seeded in [member, parts, hetero] {
            assert_eq!(
                rules("bench/src/predict.rs", seeded),
                vec![Rule::OneSharingModel],
                "{seeded}"
            );
            // The model's own crate and the policy's pricing may.
            for file in ["core/src/sharing.rs", "engine/src/policy.rs"] {
                assert!(rules(file, seeded).is_empty(), "{file}: {seeded}");
            }
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{seeded}\n}}");
            assert!(rules("bench/src/predict.rs", &in_test).is_empty());
        }
        // Asking the evaluator is what everyone else does.
        for fine in [
            "fn z(p: &PlanSpec, n: NodeId) -> f64 { SharingEvaluator::homogeneous(p, n, 4).map_or(0.0, |e| e.speedup(1.0)) }",
            "fn z(m: &[(&QueryModelInfo, f64)]) -> f64 { sharing_group(m).map_or(0.0, |e| e.speedup(1.0)) }",
            "fn f(m: &GroupMember) -> f64 { m.coverage }",
        ] {
            let got = rules("bench/src/predict.rs", fine);
            assert!(got.is_empty(), "{fine}: {got:?}");
        }
    }

    #[test]
    fn seeded_spill_io_is_caught_outside_its_modules() {
        let mut cfg = cfg_for("none");
        cfg.file_io_prefixes = vec!["storage/src".into(), "exec/src".into()];
        cfg.file_io_files = vec!["storage/src/spill.rs".into()];
        cfg.spill_stream_prefixes = vec!["exec/src".into()];
        cfg.spill_stream_files = vec!["exec/src/memory.rs".into()];
        let rules = |file: &str, src: &str| -> Vec<Rule> {
            let found = lint_source(file, src, &cfg);
            found.into_iter().map(|f| f.rule).collect()
        };
        // A file path of an operator's own.
        let own_file = "fn dump(p: &Path, b: &[u8]) { let _ = std::fs::write(p, b); }";
        let imported = "use std::fs::File;";
        let opened = "fn open(p: &Path) -> io::Result<File> { File::open(p) }";
        for (seeded, hits) in [(own_file, 1), (imported, 2), (opened, 1)] {
            let got = rules("exec/src/ops/sort.rs", seeded);
            assert_eq!(got, vec![Rule::OneSpillIo; hits], "{seeded}");
            assert!(rules("storage/src/spill.rs", seeded).is_empty(), "{seeded}");
            assert!(rules("bench/src/output.rs", seeded).is_empty(), "{seeded}");
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{seeded}\n}}");
            assert!(rules("exec/src/ops/sort.rs", &in_test).is_empty());
        }
        // A stream opened past the one place that grants its frame.
        let created = "fn run(d: &Path, s: Arc<Schema>) { let _ = SpillWriter::create(d, s); }";
        let framed =
            "fn run(d: &Path, s: Arc<Schema>) { let _ = SpillWriter::create_framed(d, s, 4); }";
        let reopened = "fn back(f: SpillFile) { let _ = f.into_reader_framed(2); }";
        for seeded in [created, framed, reopened] {
            let got = rules("exec/src/ops/hash_join.rs", seeded);
            assert_eq!(got, vec![Rule::OneSpillIo], "{seeded}");
            for file in [
                "exec/src/memory.rs",
                "storage/src/spill.rs",
                "bench/src/x.rs",
            ] {
                assert!(rules(file, seeded).is_empty(), "{file}: {seeded}");
            }
        }
        // Holding a spill file, or asking the context for a stream, is
        // what operators do.
        for fine in [
            "struct Pair { build: Option<SpillFile>, probe: SpillFile }",
            "fn run(io: &SpillIo<'_>, s: Arc<Schema>) { let _ = io.create(s, 4); }",
            "fn offs(x: &Prefs) -> usize { x.fs_offset }",
        ] {
            let got = rules("exec/src/ops/hash_join.rs", fine);
            assert!(got.is_empty(), "{fine}: {got:?}");
        }
    }

    #[test]
    fn char_literals_and_lifetimes_lex_cleanly() {
        // A brace in a char literal must not corrupt the test-region
        // brace balance; lifetimes must not open a bogus literal.
        let src = "fn f<'a>(x: &'a str) -> char { '{' }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { Some('}').unwrap(); } }\n\
                   fn prod(o: Option<u8>) -> u8 { o.unwrap() }";
        assert_eq!(rules(src), vec![Rule::PanicSite]);
    }

    #[test]
    fn findings_carry_one_based_lines_and_display() {
        let f = &lint_source("probe.rs", "\nfn f() { panic!() }", &cfg_for("probe.rs"))[0];
        assert_eq!(f.line, 2);
        let shown = f.to_string();
        assert!(shown.starts_with("probe.rs:2: [panic-site]"), "{shown}");
    }

    #[test]
    fn workspace_config_names_existing_files() {
        // Guard against the allowlists rotting as files move.
        let cfg = Config::workspace();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for f in cfg
            .unsafe_allowed_files
            .iter()
            .chain(&cfg.deterministic_exceptions)
            .chain(&cfg.relaxed_allowed_files)
            .chain(&cfg.oracle_allowed_files)
            .chain(&cfg.run_loop_files)
            .chain(&cfg.thread_driver_files)
            .chain(&cfg.operator_task_files)
            .chain(&cfg.sharing_model_files)
            .chain(&cfg.file_io_files)
            .chain(&cfg.spill_stream_files)
        {
            assert!(root.join(f).is_file(), "allowlisted file {f} is gone");
        }
    }
}
