//! The lint as a gate: the workspace is clean under the real policy, and
//! the `cordoba-lint` binary has teeth — each seeded violation, alone in
//! a scratch root laid out like the workspace (so its relative path
//! scopes the rules exactly as in-tree code would), makes it exit 1 with
//! an offender line that names the seeded file and its rule.

use cordoba_lint::{lint_workspace, Config};
use std::fs;
use std::path::Path;
use std::process::Command;

/// `(path, source, rule)`: naked unsafe + unwrap, a tree-walk `eval`
/// call, the oracle's per-row `like_match`, a second threaded executor
/// and an operator with a `step` of its own — in an operator module,
/// and a relay task beside the wiring — in exec-shaped paths; an oracle
/// call, a second run loop and a bridge task across the sharing seam in
/// engine-shaped paths; a second pricing of a sharing group in a
/// bench-shaped path; an operator opening a spill file past
/// `SpillContext::io`.
const SEEDS: [(&str, &str, &str); 11] = [
    (
        "crates/exec/src/bad.rs",
        "pub fn bad(p: *const u8) -> u8 {\n    let v = unsafe { *p };\n    Some(v).unwrap()\n}\n",
        "panic-site",
    ),
    (
        "crates/engine/src/oracle.rs",
        "pub fn slow(c: &Catalog, p: &PhysicalPlan) -> Rows {\n    cordoba_exec::reference::execute(c, p)\n}\n",
        "oracle-in-engine",
    ),
    (
        "crates/exec/src/tree_walk.rs",
        "pub fn keep(p: &Predicate, t: &TupleRef) -> bool {\n    p.eval(t)\n}\n",
        "oracle-in-engine",
    ),
    (
        "crates/exec/src/like_per_row.rs",
        "pub fn keep(comment: &str) -> bool {\n    like_match(comment, \"%special%requests%\")\n}\n",
        "oracle-in-engine",
    ),
    (
        "crates/engine/src/second_loop.rs",
        "pub fn run_again(core: Core) {\n    let mut sim = Simulator::new(1);\n    sim.spawn(\"dispatcher\", Box::new(DispatcherTask { core }));\n}\n",
        "one-run-loop",
    ),
    (
        "crates/engine/src/bridge.rs",
        "impl Task for SeamBridge {\n    fn step(&mut self, ctx: &mut TaskCtx) -> Step {\n        self.fanout.pump(ctx);\n        Step::blocked(0)\n    }\n}\n",
        "one-operator-shell",
    ),
    (
        "crates/exec/src/second_executor.rs",
        "pub fn par_kernel(parts: &[Part]) {\n    std::thread::scope(|s| parts.iter().for_each(|p| drop(s.spawn(|| p.run()))));\n}\n",
        "one-thread-driver",
    ),
    (
        "crates/exec/src/ops/limit.rs",
        "impl Task for LimitTask {\n    fn step(&mut self, ctx: &mut TaskCtx) -> Step {\n        self.pump(ctx)\n    }\n}\n",
        "one-operator-shell",
    ),
    (
        "crates/exec/src/relay.rs",
        "impl Task for RelayTask {\n    fn step(&mut self, ctx: &mut TaskCtx) -> Step {\n        self.fanout.pump(ctx);\n        Step::blocked(0)\n    }\n}\n",
        "one-operator-shell",
    ),
    (
        "crates/bench/src/second_pricing.rs",
        "pub fn predicted_z(s: f64, c: f64) -> f64 {\n    let m = GroupMember::new(s / c, vec![]).with_partial_overlap(c, 0.1 * s / c);\n    SharingEvaluator::from_parts(vec![], 1.0, vec![m]).map_or(f64::NAN, |e| e.speedup(1.0))\n}\n",
        "one-sharing-model",
    ),
    (
        "crates/exec/src/ops/own_stream.rs",
        "fn spill_run(&mut self) -> io::Result<SpillFile> {\n    let mut run = SpillWriter::create(&self.dir, self.schema.clone())?;\n    self.rows.iter().try_for_each(|r| run.push_row(r))?;\n    run.finish()\n}\n",
        "one-spill-io",
    ),
];

#[test]
fn workspace_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (findings, scanned) =
        lint_workspace(&root, &Config::workspace()).expect("workspace readable");
    assert!(scanned > 50, "expected the full tree, scanned {scanned}");
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "workspace lint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_seeded_violation_fails_the_binary_and_names_its_rule() {
    let mut missed = Vec::new();
    for (i, (path, source, rule)) in SEEDS.iter().enumerate() {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-seed-{i}"));
        let _ = fs::remove_dir_all(&root);
        let file = root.join(path);
        fs::create_dir_all(file.parent().expect("a seed lives in a directory")).expect("mkdir");
        fs::write(root.join("Cargo.toml"), "").expect("write the root manifest");
        fs::write(&file, source).expect("write the seed");

        let out = Command::new(env!("CARGO_BIN_EXE_cordoba-lint"))
            .current_dir(&root)
            .output()
            .expect("run cordoba-lint");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let named = stdout
            .lines()
            .any(|l| l.starts_with(&format!("{path}:")) && l.contains(&format!("[{rule}]")));
        if out.status.code() != Some(1) || !named {
            missed.push(format!(
                "{path} [{rule}]: exit {:?}\n{stdout}{}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        fs::remove_dir_all(&root).expect("remove the scratch root");
    }
    assert!(
        missed.is_empty(),
        "cordoba-lint let seeded violations through:\n{}",
        missed.join("\n")
    );
}
