//! Cordoba's wall-clock benchmark: five workloads, end-to-end metrics,
//! a per-layer ladder. See `README.md` beside this package and
//! `/BENCHMARK.json` for the contract it is written to.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the
//!     result object (this is how the driver calls it)
//! benchmark [--seed <n>] [--seconds <s>] [--quick]
//!     every workload, each in a child process of its own, end-to-end
//!     run then traced run
//! benchmark --repeat <n> [--seed <n>] [--seconds <s>] [--quick]
//!     two sets of n end-to-end runs per workload (seeds seed..seed+n);
//!     prints spreads and set-to-set drift against the bounds, exits
//!     non-zero when one is exceeded
//! ```

#![warn(missing_docs)]

mod host;
mod inputs;
mod json;
mod layers;
mod measure;
mod oracle;
mod report;
mod stats;
mod trace;
mod workloads;

use inputs::{Kind, Seeds, Sizing};
use json::Json;
use measure::RunCfg;
use oracle::Oracle;
use report::{Better, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    repeat: Option<usize>,
    oracle: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        repeat: None,
        oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = Some(Kind::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat must be in 1..=100".into());
                }
                opts.repeat = Some(n);
            }
            "--quick" => opts.quick = true,
            "--oracle" => opts.oracle = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.oracle && opts.workload.is_none() {
        return Err("--oracle needs --workload".into());
    }
    Ok(opts)
}

impl Opts {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { 0.3 } else { 18.0 })
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn results_root() -> PathBuf {
    PathBuf::from("results").join("benchmark")
}

/// Driver mode: one workload, here. Prints the metric table, the full
/// summary line and, last, the contract's result line.
fn run_here(opts: &Opts, kind: Kind) -> ExitCode {
    let cfg = RunCfg {
        kind,
        seed: opts.seed,
        seconds: opts.seconds(),
        traced: opts.traced,
        quick: opts.quick,
        oracle: Oracle::from_child,
        results_root: results_root(),
    };
    match measure::run(&cfg) {
        Ok(record) => {
            print!("{}", record.table());
            let sorted = stats::sorted(&record.samples_ms);
            if let Some((p, v)) = stats::highest_supported(&sorted) {
                println!(
                    "  iter_ms p{p} = {v:.4} ms (highest percentile with >= 10 of {} samples beyond it)",
                    sorted.len()
                );
            }
            println!("{}", record.summary().emit());
            println!("{}", record.contract_line());
            exit_code(record.correct)
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", kind.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in a child process of this binary and returns its
/// stdout. Each workload gets a process of its own so `peak_rss_mb`,
/// CPU time and I/O bytes are that workload's alone.
fn run_child(opts: &Opts, kind: Kind, seed: u64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{} (seed {seed}) exited with {}\n{stdout}",
            kind.name(),
            out.status
        ));
    }
    Ok(stdout)
}

/// The end-to-end metric values of a child's result line.
fn end_to_end_values(stdout: &str) -> Result<Vec<f64>, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = Json::parse(line)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("child reported an incorrect run: {line}"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line lacks {}", m.name))
        })
        .collect()
}

/// Default mode: every workload, end-to-end then traced, each run in
/// its own child; the children's tables are passed through.
fn run_all(opts: &Opts) -> ExitCode {
    let mut ok = true;
    for kind in Kind::ALL {
        for traced in [false, true] {
            match run_child(opts, kind, opts.seed, traced) {
                Ok(stdout) => print!("{stdout}"),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
    }
    exit_code(ok)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `--repeat n`: what the driver does before accepting the benchmark.
/// Two sets of `n` runs per workload, seeds `seed..seed+n` in each; per
/// end-to-end metric the two medians, how much worse the second is, and
/// each set's quartile spread as a share of its median — all against
/// the metric's bound (`setup_s` is exempt from the spread rule).
fn run_repeat(opts: &Opts, n: usize) -> ExitCode {
    let mut ok = true;
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median_1", "median_2", "worse", "iqr_1", "iqr_2", "bound"
    );
    for kind in Kind::ALL {
        // sets[set][metric] = the n values.
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for set in &mut sets {
            for i in 0..n as u64 {
                let values = run_child(opts, kind, opts.seed + i, false)
                    .and_then(|out| end_to_end_values(&out));
                match values {
                    Ok(values) => {
                        for (slot, v) in set.iter_mut().zip(values) {
                            slot.push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (m, def) in END_TO_END.iter().enumerate() {
            let med = |set: usize| stats::median_interpolated(&sets[set][m]).unwrap_or(f64::NAN);
            let iqr = |set: usize| stats::iqr_share(&sets[set][m]);
            let worse = worsening(def.better, med(0), med(1));
            let spread_ok = def.name == "setup_s"
                || [iqr(0), iqr(1)]
                    .iter()
                    .all(|s| s.is_none_or(|s| s <= def.bound));
            let verdict = if worse <= def.bound && spread_ok {
                ""
            } else {
                "  EXCEEDED"
            };
            ok &= verdict.is_empty();
            let show = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{s:.4}"));
            println!(
                "{:<16} {:<14} {:>12.4} {:>12.4} {:>8.4} {:>8} {:>8} {:>6}{verdict}",
                kind.name(),
                def.name,
                med(0),
                med(1),
                worse,
                show(iqr(0)),
                show(iqr(1)),
                def.bound
            );
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (opts.workload, opts.repeat) {
        (Some(kind), _) if opts.oracle => {
            let sizing = if opts.quick {
                Sizing::QUICK
            } else {
                Sizing::FULL
            };
            print!(
                "{}",
                Oracle::compute(kind, Seeds::from_seed(opts.seed), sizing).to_lines()
            );
            ExitCode::SUCCESS
        }
        (Some(kind), _) => run_here(&opts, kind),
        (None, Some(n)) => run_repeat(&opts, n),
        (None, None) => run_all(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let o = parse(&[
            "--workload",
            "join_sort_spill",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload, Some(Kind::JoinSortSpill));
        assert_eq!((o.seed, o.seconds(), o.traced), (7, 10.0, true));
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds(), d.traced, d.workload),
            (1, 18.0, false, None)
        );
        assert_eq!(parse(&["--quick"]).unwrap().seconds(), 0.3);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--oracle"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Lower, 100.0, 90.0) < 0.0);
    }

    #[test]
    fn result_line_is_read_back() {
        let line = "table\n{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
            \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
            \"queries_per_s\": {\"value\": 90.25, \"unit\": \"queries/s\"}, \
            \"iter_ms_p10\": {\"value\": 21.5, \"unit\": \"ms\"}, \
            \"peak_rss_mb\": {\"value\": 29.0, \"unit\": \"MiB\"}}}";
        assert_eq!(
            end_to_end_values(line).unwrap(),
            vec![1.5, 90.25, 21.5, 29.0]
        );
        assert!(end_to_end_values("{\"correct\": false}").is_err());
        assert!(end_to_end_values("").is_err());
    }
}
