//! The workspace policy as one gate: the sources are copied to a scratch
//! tree, each seed in `seeds/` becomes a module of the crates it is listed
//! for, and `cargo clippy --lib` runs there once, beside a token match for
//! the one rule clippy cannot express. The findings must be exactly the
//! seeds' marks: a line ending `//~ lint …` yields those lints, no other.
//! The two tests below share that one run: one checks the workspace's own
//! files, the other the seeds.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// Each seed and the crates whose rules it breaks.
const SEEDS: [(&str, &str); 12] = [
    ("unsafe_and_panics", "storage exec engine"),
    ("clock_and_env", "core sim storage exec engine workload"),
    ("relaxed", "exec"),
    ("oracle_in_exec", "exec"),
    ("oracle_in_engine", "engine"),
    ("second_loop", "engine"),
    ("second_threads", "exec engine"),
    ("operator_tasks", "exec engine"),
    ("second_pricing", "exec engine workload bench"),
    ("own_files", "storage exec engine"),
    ("own_stream", "exec"),
    ("own_cells", "exec engine"),
];

type Findings = BTreeMap<(String, usize), Vec<String>>; // (file, line) → lints

/// Copies `from` to `to` without `target/`, listing the crates' sources.
fn copy(from: &Path, to: &Path, rel: &Path, sources: &mut Vec<String>) {
    if from.is_dir() {
        fs::create_dir_all(to).expect("mkdir");
        for entry in fs::read_dir(from).expect("a readable tree") {
            let name = entry.expect("a directory entry").file_name();
            let (from, to, rel) = (from.join(&name), to.join(&name), rel.join(&name));
            if name != "target" {
                copy(&from, &to, &rel, sources);
            }
        }
    } else {
        fs::copy(from, to).expect("copy a source file");
        let rel = rel.to_string_lossy();
        let krate = rel.starts_with("src/") || rel.starts_with("crates/") && rel.contains("/src/");
        if krate && rel.ends_with(".rs") && !rel.starts_with("crates/lint/") {
            sources.push(rel.into_owned());
        }
    }
}

/// Rule 4's audited `Ordering::Relaxed` sites: the model-checked peak
/// CAS and claim counters, and the spill-file name counter.
const RELAXED_OWNERS: [&str; 4] = [
    "crates/exec/src/memory.rs",
    "crates/exec/src/parallel.rs",
    "crates/engine/src/run/threads.rs",
    "crates/storage/src/spill.rs",
];

/// The findings and the seeds' marks of the one clippy run, or the
/// reason it could not run.
fn gate() -> &'static Result<(Findings, Findings), String> {
    static GATE: OnceLock<Result<(Findings, Findings), String>> = OnceLock::new();
    GATE.get_or_init(run_gate)
}

fn run_gate() -> Result<(Findings, Findings), String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("policy-gate");
    let tree = scratch.join("tree");
    let _ = fs::remove_dir_all(&tree);
    let mut sources = Vec::new();
    for item in ["crates", "src", "vendor", "Cargo.toml", "Cargo.lock"] {
        let (from, to) = (repo.join(item), tree.join(item));
        copy(&from, &to, Path::new(item), &mut sources);
    }
    let mut expected = Findings::new();
    for (seed, crates) in SEEDS {
        let source = fs::read_to_string(repo.join(format!("crates/lint/seeds/{seed}.rs")));
        let source = source.expect("a seed");
        for krate in crates.split(' ') {
            let file = format!("crates/{krate}/src/{seed}.rs");
            fs::write(tree.join(&file), &source).expect("write the seed");
            let root = tree.join(format!("crates/{krate}/src/lib.rs"));
            let decl = fs::read_to_string(&root).expect("a crate root");
            let decl = decl + &format!("#[allow(dead_code)]\nmod {seed};\n");
            fs::write(&root, decl).expect("declare the seed");
            for (i, line) in source.lines().enumerate() {
                if let Some((_, lints)) = line.split_once("//~ ") {
                    let lints = lints.split_whitespace().map(String::from).collect();
                    expected.insert((file.clone(), i + 1), lints);
                }
            }
            sources.push(file);
        }
    }

    let args = "clippy --offline --lib --message-format=json-diagnostic-short -- --cap-lints warn";
    let out = Command::new(env!("CARGO"))
        .args(args.split(' '))
        .env("CARGO_TARGET_DIR", scratch.join("target"))
        .current_dir(&tree)
        .output()
        .expect("run cargo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        let needs = "this gate needs the toolchain's `clippy` component";
        return Err(format!("{needs}:\n{stderr}"));
    }
    let mut found = Findings::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        // A diagnostic renders as `file:line:col: level: message`, and
        // its own code comes last, after its children's.
        let Some(rendered) = line.split(r#""rendered":""#).nth(1) else {
            continue; // an artifact, not a diagnostic
        };
        let mut at = rendered.splitn(3, ':');
        let file = at.next().unwrap_or(rendered).to_string();
        let line_no = at.next().and_then(|n| n.parse().ok()).unwrap_or(0);
        let code = line
            .rsplit_once(r#""code":{"code":""#)
            .map(|(_, c)| c.split('"').next());
        let code = code.flatten().unwrap_or("?").to_string();
        found.entry((file, line_no)).or_default().push(code);
    }
    // Rule 4, which clippy cannot express (a disallowed path names no enum
    // variant), as a token match over non-test, non-comment lines.
    for file in sources
        .iter()
        .filter(|f| !RELAXED_OWNERS.contains(&f.as_str()))
    {
        let source = fs::read_to_string(tree.join(file)).expect("a source");
        let code = source.split("\n#[cfg(test)]\nmod tests").next();
        for (i, line) in code.unwrap_or(&source).lines().enumerate() {
            if line.contains("Ordering::Relaxed") && !line.trim_start().starts_with("//") {
                let relaxed = found.entry((file.clone(), i + 1)).or_default();
                relaxed.push("relaxed-ordering".into());
            }
        }
    }
    for lints in found.values_mut().chain(expected.values_mut()) {
        lints.sort();
    }
    Ok((found, expected))
}

/// Whether a finding's file is one of the seeds added to the scratch tree.
fn is_seed(file: &str) -> bool {
    SEEDS.iter().any(|(seed, crates)| {
        (crates.split(' ')).any(|krate| file == format!("crates/{krate}/src/{seed}.rs"))
    })
}

#[test]
fn workspace_lint_is_clean() {
    let (found, _) = gate().as_ref().unwrap_or_else(|e| panic!("{e}"));
    let outside: Findings = found
        .iter()
        .filter(|((file, _), _)| !is_seed(file))
        .map(|(at, lints)| (at.clone(), lints.clone()))
        .collect();
    assert_eq!(outside, Findings::new(), "findings outside the seeds");
}

#[test]
fn every_seeded_violation_fails_the_binary_and_names_its_rule() {
    let (found, expected) = gate().as_ref().unwrap_or_else(|e| panic!("{e}"));
    let seeded: Findings = found
        .iter()
        .filter(|((file, _), _)| is_seed(file))
        .map(|(at, lints)| (at.clone(), lints.clone()))
        .collect();
    assert_eq!(
        &seeded, expected,
        "found in the seeds (left), their marks (right)"
    );
}
