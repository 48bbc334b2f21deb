//! The metric tables — the code's copy of `/BENCHMARK.json`, held
//! equal to it by a test — and the output records.

use crate::host::{Calibration, Host};
use crate::inputs::Kind;
use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// An end-to-end metric: what a user of the engine would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload.
///
/// * `setup_s` — median over the run's set-ups of: catalog generation,
///   spec/schedule build, `profile_query`, the oracle child, warm-up.
/// * `queries_per_s` — queries completed per wall second the program
///   spent on them, over each half second of the measured windows; the
///   90th percentile of those half seconds.
/// * `iter_ms_p10` — nearest-rank 10th percentile of the wall time of
///   one iteration (the workload's fixed batch).
/// * `peak_rss_mb` — the smallest, over the run's rounds, of the peak
///   resident set (`VmHWM`) the workload's own process reached in that
///   round (the oracle runs in a child, so this is the engine's memory).
///
/// Why the quiet end of the samples and not their middle: the host
/// decides the middle. On the 2-core shared machine this was written on,
/// iterations take a third to a half longer for stretches of up to
/// several seconds, with nothing else running in the VM, so the median of
/// a run moves by 30 % with what else the host was doing, while the
/// program's own time is the floor those stretches rise from. The median, p90 and
/// maximum are per-layer `harness.iter_ms_*` metrics.
///
/// Every bound is the widest the contract allows: what is left after
/// the quantiles is the host's slow drift (1–5 % between ten runs on the
/// single-threaded workloads, up to 9 % on `thread_share`, which leaves
/// no core free) and, on `service_shared`, the seed — its work and its
/// 11 MiB of memory depend on the seed's family windows and arrivals,
/// which alone spreads ten seeds by 6–9 % in time and 8–14 % in memory.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "iter_ms_p10",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, direction)`. No bound.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer metrics of a traced run, in reporting order. The
/// prefix before the first `.` is the layer (a module name, or
/// `ladder`/`proc`/`harness`/`calib` for the benchmark's own).
pub const PER_LAYER: [PerLayer; 66] = [
    ("storage.generate_s", "s", Lower),
    ("storage.gather_ns_per_row", "ns/row", Lower),
    ("storage.copy_rows_ns_per_row", "ns/row", Lower),
    ("storage.spill_write_mb_per_s", "MB/s", Higher),
    ("storage.spill_read_mb_per_s", "MB/s", Higher),
    ("storage.spill_bytes_per_input_byte", "ratio", Lower),
    ("vexpr.select_ns_per_row", "ns/row", Lower),
    ("vexpr.eval_ns_per_row", "ns/row", Lower),
    ("vexpr.compile_us", "us", Lower),
    ("ops.scan_floor_ns_per_row", "ns/row", Lower),
    ("ops.filter_ns_per_row", "ns/row", Lower),
    ("ops.aggregate_ns_per_row", "ns/row", Lower),
    ("ops.join_build_ns_per_row", "ns/row", Lower),
    ("ops.join_probe_ns_per_row", "ns/row", Lower),
    ("ops.hash_join_ns_per_row", "ns/row", Lower),
    ("ops.sort_ns_per_row", "ns/row", Lower),
    ("ops.hash_join_spill_ns_per_row", "ns/row", Lower),
    ("ops.sort_spill_ns_per_row", "ns/row", Lower),
    ("memory.peak_over_budget", "ratio", Lower),
    ("wiring.instantiate_us", "us", Lower),
    ("subsume.fingerprint_ns", "ns", Lower),
    ("subsume.residual_ns", "ns", Lower),
    ("fragment_cache.lookup_ns", "ns", Lower),
    ("fragment_cache.hit_ratio", "ratio", Higher),
    ("fragment_cache.evictions", "count", Lower),
    ("policy.admit_ns", "ns", Lower),
    ("engine.run_once_overhead_us", "us", Lower),
    ("profiling.profile_query_ms", "ms", Lower),
    ("workload.family_specs_us", "us", Lower),
    ("workload.schedule_us", "us", Lower),
    ("reference.expected_s", "s", Lower),
    ("sim.step_ns", "ns", Lower),
    ("sim.channel_ns_per_page", "ns/page", Lower),
    ("sim.steps_per_query", "count", Lower),
    ("service.completed", "count", Higher),
    ("service.rejected", "count", Lower),
    ("service.mean_group", "count", Higher),
    ("service.subsume_joins", "count", Higher),
    ("service.vt_utilization", "ratio", Higher),
    ("service.vt_response_p50", "vtime", Lower),
    ("service.vt_response_p99", "vtime", Lower),
    ("thread_exec.unshared_ms", "ms", Lower),
    ("thread_exec.shared_ms", "ms", Lower),
    ("thread_exec.par_w1_ms", "ms", Lower),
    ("thread_exec.par_w2_ms", "ms", Lower),
    ("thread_exec.par_speedup_w2", "ratio", Higher),
    ("thread_exec.shared_over_unshared", "ratio", Lower),
    ("ladder.engine_share", "ratio", Lower),
    ("ladder.wiring_share", "ratio", Lower),
    ("ladder.sim_share", "ratio", Lower),
    ("ladder.kernel_share", "ratio", Higher),
    ("ladder.join_share", "ratio", Lower),
    ("ladder.spill_share", "ratio", Lower),
    ("proc.cpu_user_s", "s", Lower),
    ("proc.cpu_sys_s", "s", Lower),
    ("proc.cpu_util", "ratio", Higher),
    ("proc.rchar_mb", "MB", Lower),
    ("proc.wchar_mb", "MB", Lower),
    ("proc.minor_faults", "count", Lower),
    ("harness.iter_samples", "count", Higher),
    ("harness.iter_ms_p50", "ms", Lower),
    ("harness.iter_ms_p90", "ms", Lower),
    ("harness.iter_ms_max", "ms", Lower),
    ("harness.trace_overhead_ratio", "ratio", Lower),
    ("calib.sum_ns_per_row", "ns/row", Lower),
    ("calib.memcpy_ns_per_byte", "ns/byte", Lower),
];

/// Why each workload exists: the one line `BENCHMARK.json` carries.
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::ScanAgg => {
            "Q1+Q6 in one batch: storage gathers, vexpr, filter and aggregate do the work; \
             bypasses join, sort, spill and sharing"
        }
        Kind::JoinSort => {
            "Q4, Q13, sort-aggregate and join-aggregate in memory: hash-join build/probe \
             and sort dominate; outputs are aggregated away"
        }
        Kind::JoinSortSpill => {
            "the same four plans under a budget of lineitem/16: the spill paths of the same \
             operators, writes beside reads; peak_rss_mb is what spilling buys"
        }
        Kind::ServiceShared => {
            "1024 bursty arrivals of small nested-window queries through the service loop: \
             per-query fixed cost, group formation, fragment cache and admission dominate"
        }
        Kind::ThreadShare => {
            "the real-thread executor (unshared, shared, morsel-parallel): the only wall-clock \
             sharing path; must not move when only simulator-side code changes"
        }
    }
}

/// One run's outcome, ready to print.
#[derive(Debug, Clone)]
pub struct Record {
    /// The workload.
    pub kind: Kind,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Whether quick sizing was used (never comparable).
    pub quick: bool,
    /// Every output matched and every probe ran.
    pub correct: bool,
    /// Queries attempted in the measured window(s).
    pub attempted: u64,
    /// Queries failed.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-iteration wall times of the untraced window, ms.
    pub samples_ms: Vec<f64>,
    /// Host identity.
    pub host: Host,
    /// Calibration kernels.
    pub calib: Calibration,
}

impl Record {
    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }))
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .emit()
    }

    /// The full single-line summary: the contract's fields plus
    /// workload, seed, host identity and calibration.
    pub fn summary(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.kind.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("quick", Json::Bool(self.quick)),
            ("host", self.host.to_json()),
            (
                "calib",
                Json::obj([
                    ("sum_ns_per_row", Json::Num(self.calib.sum_ns_per_row)),
                    (
                        "memcpy_ns_per_byte",
                        Json::Num(self.calib.memcpy_ns_per_byte),
                    ),
                ]),
            ),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("iter_samples", Json::Num(self.samples_ms.len() as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// `samples.json`: the summary plus the raw per-iteration samples.
    pub fn samples_json(&self) -> Json {
        let Json::Obj(mut pairs) = self.summary() else {
            unreachable!("summary is an object");
        };
        pairs.push((
            "samples_ms".into(),
            Json::Arr(self.samples_ms.iter().map(|&s| Json::Num(s)).collect()),
        ));
        Json::Obj(pairs)
    }

    /// Human-readable lines: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}{}) — {}\n",
            self.kind.name(),
            self.seed,
            if self.traced {
                "traced: per-layer"
            } else {
                "end-to-end"
            },
            if self.quick { ", QUICK sizing" } else { "" },
            why(self.kind),
        );
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<36} {value:>16.4} {unit}\n"));
        }
        out.push_str(&format!(
            "  {:<36} {:>16} of {} attempted; {} iteration samples\n",
            "failed",
            self.failed,
            self.attempted,
            self.samples_ms.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The word `BENCHMARK.json` uses for a direction.
    fn word(better: Better) -> &'static str {
        match better {
            Higher => "higher",
            Lower => "lower",
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(Kind::ALL.iter().map(|k| (k.name(), "count")));
        for (name, unit) in all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "set-up time carries the largest bound"
        );
        for kind in Kind::ALL {
            assert!(why(kind).len() <= 200 && !why(kind).contains('\n'));
        }
    }

    /// `/BENCHMARK.json` is what the driver reads; this table is what
    /// the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = Kind::ALL
            .iter()
            .map(|&k| (k.name().to_string(), why(k).to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), word(want.better));
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
            assert_eq!(got.as_obj().unwrap().len(), 4);
        }

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.0);
            assert_eq!(field(got, "unit"), want.1);
            assert_eq!(field(got, "better"), word(want.2));
            assert_eq!(got.as_obj().unwrap().len(), 3);
        }

        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths, [Json::str("benchmark")]);
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert!(text.len() <= 64 * 1024);
    }
}
