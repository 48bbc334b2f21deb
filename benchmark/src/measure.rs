//! One run of one workload in this process: set-up, the measured
//! window, and — in a traced run — the traced pass, the ladder and the
//! layer probes.
//!
//! End-to-end numbers always come from untraced windows. An end-to-end
//! run is `ROUNDS` rounds of a fresh set-up followed by its share of the
//! measured window, so that both are sampled over the whole span of the
//! run and not at one end of it. A traced run (`--trace 1`) sets up once
//! and splits its time: 30 % untraced (so the tracing overhead can be
//! stated), 30 % traced iterations with the ladder replays, the rest for
//! the probes.
//!
//! The machine this runs on is a few cores of a shared host, which
//! slows the program for seconds at a time (a `scan_agg` iteration takes
//! 21 ms, or 27–33 ms for a whole stretch of them, with nothing else
//! running in the VM), and only ever slows it. The two timed end-to-end
//! metrics are therefore taken from the quiet end of the run's samples —
//! the 10th percentile of the iteration times and the 90th of the
//! half-second throughputs — which one slow stretch, however slow, cannot
//! move; the median and the tail of the same samples are per-layer
//! `harness.*` metrics.

use crate::host::{self, Calibration, Host, ProcSample};
use crate::inputs::{Kind, Sizing};
use crate::json::Json;
use crate::layers::{self, Measured};
use crate::oracle::OracleSource;
use crate::report::{Record, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{totals_by_name, Tracer};
use crate::workloads::{Check, Clock, Prepared};
use cordoba_sim::Histogram;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// The workload.
    pub kind: Kind,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the measured window.
    pub seconds: f64,
    /// `--trace 1`.
    pub traced: bool,
    /// `--quick`: smoke sizing, one set-up, never comparable.
    pub quick: bool,
    /// Where the expectations come from.
    pub oracle: OracleSource,
    /// Directory under which `<workload>/` holds samples, trace and
    /// spill files (`results/benchmark` in the checkout).
    pub results_root: PathBuf,
}

/// Rounds of an end-to-end run: each is a set-up and a `1 / ROUNDS`
/// share of the measured window. `setup_s` is the median set-up.
const ROUNDS: usize = 3;
/// Iteration time a throughput block holds before it closes.
const BLOCK_MS: f64 = 500.0;
/// Traced iterations are few: each also replays the rungs beneath it.
const MAX_TRACED_ITERS: usize = 10;
/// Probes timed within a traced run's probe share.
const PROBES: f64 = 40.0;

/// Iterations of the untraced windows.
#[derive(Default)]
struct Window {
    samples_ms: Vec<f64>,
    /// Iterations per second of each `BLOCK_MS` block; blocks do not
    /// straddle windows.
    block_rates: Vec<f64>,
    check: Check,
}

/// Runs iterations until `seconds` have passed (at least `min_iters`);
/// a sample is the time the iteration's `Clock` ran, and every output
/// is checked.
fn untraced_window(w: &mut Window, p: &mut Prepared, seconds: f64, min_iters: usize) {
    let first = w.samples_ms.len();
    let started = Instant::now();
    while w.samples_ms.len() - first < min_iters || started.elapsed().as_secs_f64() < seconds {
        let mut clock = Clock::untraced();
        let raw = p.run(&mut clock);
        w.samples_ms.push(clock.elapsed.as_secs_f64() * 1e3);
        w.check.absorb(p.check(raw));
    }
    w.block_rates
        .extend(stats::block_rates(&w.samples_ms[first..], BLOCK_MS));
}

/// Runs one workload and returns its record. Also writes
/// `samples.json` (and `trace.json` for a traced run) under the
/// workload's results directory.
pub fn run(cfg: &RunCfg) -> Result<Record, String> {
    let born = Instant::now();
    let dir = cfg.results_root.join(cfg.kind.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let sizing = if cfg.quick {
        Sizing::QUICK
    } else {
        Sizing::FULL
    };
    let host = Host::detect();
    // The calibration kernels run after the rounds: their 16 MiB of
    // buffers would otherwise be the peak that the small-catalog service
    // workload reports.
    let calibrate = || Calibration::measure(Duration::from_millis(if cfg.quick { 5 } else { 30 }));
    let min_iters = if cfg.quick { 2 } else { 5 };

    let rounds = if cfg.traced || cfg.quick { 1 } else { ROUNDS };
    let window_s = cfg.seconds * if cfg.traced { 0.3 } else { 1.0 } / rounds as f64;
    let mut setups = Vec::with_capacity(rounds);
    // Peak resident set of each round, KiB. Like time, it only grows
    // when the host disturbs the run (consumer threads kept waiting let
    // `thread_share`'s queues fill: 87 MiB quiet, past 100 disturbed), so
    // the run reports its smallest.
    let mut peaks = Vec::with_capacity(rounds);
    let mut prepared = None;
    let mut window = Window::default();
    // Bytes written during the last window (a traced run has one).
    let mut window_wchar = 0;
    for _ in 0..rounds {
        // Free the previous set-up first: two catalogs alive at once
        // would raise the peak this run reports.
        drop(prepared.take());
        host::restart_peak_rss();
        let t = Instant::now();
        let p = prepared.insert(Prepared::setup(
            cfg.kind, cfg.seed, sizing, &dir, cfg.oracle,
        )?);
        setups.push(t.elapsed().as_secs_f64());
        let before = ProcSample::now();
        untraced_window(&mut window, p, window_s, min_iters);
        let after = ProcSample::now();
        window_wchar = after.wchar - before.wchar;
        peaks.push(after.vm_hwm_kib);
    }
    let mut p = prepared.expect("at least one round");
    let setup_s = stats::median(&setups).expect("at least one round");
    let sorted = stats::sorted(&window.samples_ms);
    let quantile = |q: f64| stats::nearest_rank(&sorted, q).expect("window has samples");
    let p50 = quantile(0.5);
    let mut check = std::mem::take(&mut window.check);
    let mut problems = Vec::new();

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let calib;
    if cfg.traced {
        calib = calibrate();
        let mut found: Vec<Measured> = vec![
            ("storage.generate_s", p.timings.generate_s),
            ("reference.expected_s", p.timings.reference_s),
            (
                "storage.spill_bytes_per_input_byte",
                window_wchar as f64 / window.samples_ms.len() as f64 / p.lineitem_bytes() as f64,
            ),
            ("harness.iter_samples", sorted.len() as f64),
            ("harness.iter_ms_p50", p50),
            ("harness.iter_ms_p90", quantile(0.9)),
            ("harness.iter_ms_max", sorted[sorted.len() - 1]),
            ("calib.sum_ns_per_row", calib.sum_ns_per_row),
            ("calib.memcpy_ns_per_byte", calib.memcpy_ns_per_byte),
        ];

        let mut tracer = Tracer::new();
        let traced = traced_window(&mut p, &mut tracer, cfg.seconds * 0.3, min_iters);
        match traced {
            Ok(c) => check.absorb(c),
            Err(e) => problems.push(e),
        }
        found.extend(ladder_metrics(&tracer, p50));

        let budget = Duration::from_secs_f64(cfg.seconds * 0.4 / PROBES);
        match layers::probe_all(&p, cfg.seed, budget) {
            Ok(m) => found.extend(m),
            Err(e) => problems.push(format!("probe: {e}")),
        }
        found.push(("sim.steps_per_query", layers::steps_per_query(&p)));
        found.extend(service_metrics(&p));

        let end = ProcSample::now();
        let cpu = end.cpu_user_s + end.cpu_sys_s;
        found.extend([
            ("proc.cpu_user_s", end.cpu_user_s),
            ("proc.cpu_sys_s", end.cpu_sys_s),
            ("proc.cpu_util", cpu / born.elapsed().as_secs_f64()),
            ("proc.rchar_mb", end.rchar as f64 / 1e6),
            ("proc.wchar_mb", end.wchar as f64 / 1e6),
            ("proc.minor_faults", end.minor_faults as f64),
        ]);

        for (name, unit, _) in PER_LAYER {
            match found.iter().find(|(n, _)| *n == name) {
                Some(&(_, value)) if value.is_finite() => metrics.push((name, value, unit)),
                Some(_) => problems.push(format!("{name} is not a finite number")),
                None => problems.push(format!("{name} was not measured")),
            }
        }
        write_json(&dir.join("trace.json"), &tracer.to_json())?;
    } else {
        calib = calibrate();
        let peak_kib = peaks.iter().min().expect("at least one round");
        let quiet_rate = stats::nearest_rank(&stats::sorted(&window.block_rates), 0.9)
            .expect("window has a block");
        let values = [
            setup_s,
            quiet_rate * p.queries_per_iter() as f64,
            quantile(0.1),
            *peak_kib as f64 / 1024.0,
        ];
        for (def, value) in END_TO_END.iter().zip(values) {
            if !(value.is_finite() && value > 0.0) {
                problems.push(format!("{} = {value} is not a positive number", def.name));
            }
            metrics.push((def.name, value, def.unit));
        }
    }

    for line in check.problems.iter().chain(&problems).take(20) {
        eprintln!("benchmark: {}: {line}", cfg.kind.name());
    }
    let record = Record {
        kind: cfg.kind,
        seed: cfg.seed,
        traced: cfg.traced,
        quick: cfg.quick,
        correct: check.failed == 0 && problems.is_empty(),
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        samples_ms: window.samples_ms,
        host,
        calib,
    };
    write_json(&dir.join("samples.json"), &record.samples_json())?;
    Ok(record)
}

fn write_json(path: &std::path::Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, value.emit() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// The traced pass: each iteration is one `iter` span holding the
/// program's own spans and, after them, the ladder's replays.
fn traced_window(
    p: &mut Prepared,
    tracer: &mut Tracer,
    seconds: f64,
    min_iters: usize,
) -> Result<Check, String> {
    let mut check = Check::default();
    let started = Instant::now();
    let mut iters = 0;
    while iters < min_iters
        || (started.elapsed().as_secs_f64() < seconds && iters < MAX_TRACED_ITERS)
    {
        tracer.set_iter(iters as u32);
        let raw = tracer.span("iter", |t| {
            let raw = p.run(&mut Clock::traced(t));
            layers::ladder_replay(p, t).map(|()| raw)
        })?;
        check.absorb(p.check(raw));
        iters += 1;
    }
    Ok(check)
}

/// The layer ladder over the traced pass, as shares of the program's
/// own time per iteration (`T`):
///
/// * `engine`  = (T − wiring path) / T — dispatcher, grouping,
///   admission, collection, net of what sharing saved (so it can be
///   negative on `service_shared`, and on `thread_share` where the rung
///   beneath is the serial replay and the program ran in parallel);
/// * `wiring`  = (wiring path − `sim.run`) / T — `instantiate`;
/// * `sim`     = (`sim.run` − kernel replays) / T — scheduler, channels
///   and operator glue around the kernels;
/// * `kernel`  = kernel replays / T.
///
/// The four sum to 1. `join` and `spill` are the parts of the kernel
/// rung spent in join build/probe and in spill write/read.
fn ladder_metrics(tracer: &Tracer, untraced_p50_ms: f64) -> Vec<Measured> {
    let spans = tracer.spans();
    let totals = totals_by_name(spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    // The program's spans are the children of `iter` outside the
    // ladder; their time per traced iteration, against the untraced
    // median, is what recording the spans cost.
    let mut per_iter_ns = vec![0.0; totals.get("iter").map_or(0, |t| t.count as usize)];
    for s in spans {
        if s.parent.is_some_and(|p| spans[p].name == "iter") && !s.name.starts_with("ladder.") {
            per_iter_ns[s.iter as usize] += s.duration_ns() as f64;
        }
    }
    let program: f64 = per_iter_ns.iter().sum();
    let traced_p50_ms = stats::median(&per_iter_ns).unwrap_or(f64::NAN) / 1e6;
    let wiring = total("ladder.wiring");
    let run = total("sim.run") + total("reference.execute");
    let kernels = total("ladder.kernels");
    // 0 / 0 on an empty trace is NaN, which the caller reports.
    let share = |ns: f64| ns / program;

    vec![
        ("ladder.engine_share", share(program - wiring)),
        ("ladder.wiring_share", share(wiring - run)),
        ("ladder.sim_share", share(run - kernels)),
        ("ladder.kernel_share", share(kernels)),
        (
            "ladder.join_share",
            share(total("ops.join_build") + total("ops.join_probe")),
        ),
        (
            "ladder.spill_share",
            share(total("storage.spill_write") + total("storage.spill_read")),
        ),
        (
            "harness.trace_overhead_ratio",
            traced_p50_ms / untraced_p50_ms - 1.0,
        ),
    ]
}

/// Counts the service loop already returns; 0 on the other workloads.
/// A policy change moves these and not wall time, a mechanism change
/// the reverse.
fn service_metrics(p: &Prepared) -> Vec<Measured> {
    let Some(r) = p.service_baseline() else {
        return [
            "fragment_cache.hit_ratio",
            "fragment_cache.evictions",
            "service.completed",
            "service.rejected",
            "service.mean_group",
            "service.subsume_joins",
            "service.vt_utilization",
            "service.vt_response_p50",
            "service.vt_response_p99",
        ]
        .map(|name| (name, 0.0))
        .to_vec();
    };
    let lookups = r.sharing.fingerprint_hits + r.sharing.fingerprint_misses;
    let mut latency = Histogram::from_samples(r.response_times.clone());
    let quantile = |h: &mut Histogram, q: f64| h.quantile(q).map_or(f64::NAN, |v| v as f64);
    vec![
        (
            "fragment_cache.hit_ratio",
            r.sharing.fingerprint_hits as f64 / lookups.max(1) as f64,
        ),
        (
            "fragment_cache.evictions",
            r.sharing.fingerprint_evictions as f64,
        ),
        ("service.completed", r.completed as f64),
        ("service.rejected", r.rejected as f64),
        (
            "service.mean_group",
            r.group_sizes.iter().sum::<usize>() as f64 / r.group_sizes.len().max(1) as f64,
        ),
        ("service.subsume_joins", r.sharing.subsume_joins as f64),
        ("service.vt_utilization", r.stats.utilization()),
        ("service.vt_response_p50", quantile(&mut latency, 0.5)),
        ("service.vt_response_p99", quantile(&mut latency, 0.99)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Seeds;

    fn smoke_dir(tag: &str) -> PathBuf {
        // Beside the test executable, inside cargo's target directory;
        // one directory per test so parallel tests share no file.
        std::env::current_exe()
            .expect("test executable path")
            .parent()
            .expect("target dir")
            .join(format!("benchmark-smoke-{tag}"))
    }

    fn quick(kind: Kind, traced: bool, tag: &str) -> Record {
        run(&RunCfg {
            kind,
            seed: 1,
            seconds: 0.05,
            traced,
            quick: true,
            oracle: |kind, seed, sizing| {
                Ok(crate::oracle::Oracle::compute(
                    kind,
                    Seeds::from_seed(seed),
                    sizing,
                ))
            },
            results_root: smoke_dir(tag),
        })
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
    }

    /// `--quick` end to end over all five workloads: every output
    /// verified, every end-to-end metric present and positive.
    #[test]
    fn quick_smoke_all_workloads_end_to_end() {
        let started = Instant::now();
        for kind in Kind::ALL {
            let r = quick(kind, false, "e2e");
            assert!(r.correct, "{}: {r:?}", kind.name());
            assert_eq!(r.failed, 0);
            assert!(r.attempted >= 2);
            let names: Vec<_> = r.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, END_TO_END.map(|m| m.name));
            assert!(r.metrics.iter().all(|m| m.1 > 0.0), "{:?}", r.metrics);
            let line = r.contract_line();
            let parsed = Json::parse(&line).expect("contract line parses");
            let keys: Vec<_> = parsed
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(smoke_dir("e2e")
                .join(kind.name())
                .join("samples.json")
                .exists());
        }
        assert!(
            started.elapsed() < Duration::from_secs(if cfg!(debug_assertions) { 60 } else { 10 }),
            "quick smoke took {:?}",
            started.elapsed()
        );
    }

    /// A traced quick run prints every per-layer metric, and the
    /// workloads discriminate the way they were designed to.
    #[test]
    fn quick_smoke_traced_runs_discriminate() {
        let get = |r: &Record, name: &str| {
            r.metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        let scan = quick(Kind::ScanAgg, true, "traced");
        let spill = quick(Kind::JoinSortSpill, true, "traced");
        let service = quick(Kind::ServiceShared, true, "traced");
        for r in [&scan, &spill, &service] {
            assert!(r.correct, "{}: {r:?}", r.kind.name());
            let names: Vec<_> = r.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.0));
            let shares: f64 = ["engine", "wiring", "sim", "kernel"]
                .iter()
                .map(|rung| get(r, &format!("ladder.{rung}_share")))
                .sum();
            assert!((shares - 1.0).abs() < 1e-9, "rungs partition the iteration");
        }
        // Join and spill rungs are absent from scan_agg, present on spill.
        assert_eq!(get(&scan, "ladder.join_share"), 0.0);
        assert_eq!(get(&scan, "ladder.spill_share"), 0.0);
        assert_eq!(get(&scan, "storage.spill_bytes_per_input_byte"), 0.0);
        assert!(get(&spill, "ladder.join_share") > 0.0);
        assert!(get(&spill, "ladder.spill_share") > 0.0);
        assert!(get(&spill, "storage.spill_bytes_per_input_byte") > 0.5);
        assert!(get(&spill, "memory.peak_over_budget") <= 1.25);
        // The service workload shares, and completes everything.
        assert!(get(&service, "service.mean_group") > 1.0);
        assert_eq!(get(&service, "service.rejected"), 0.0);
        let completed = get(&service, "service.completed");
        assert!(completed > 0.0 && service.attempted as f64 % completed == 0.0);
        assert!(smoke_dir("traced")
            .join("scan_agg")
            .join("trace.json")
            .exists());
    }
}
