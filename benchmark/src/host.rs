//! Host identity, `/proc` resource counters and the calibration
//! kernels stamped on every output record, so numbers from two hosts
//! can be told apart and normalised (ROADMAP 2a, 2e).

use crate::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Where and how this binary was built and is running.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// Cargo profile and opt-level of this binary.
    pub profile: &'static str,
    /// `git rev-parse --short HEAD` when run inside a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Reads the host's identity; fields that cannot be read say
    /// `unknown` rather than failing the run.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // The driver's checkout is not a git repository; only ask git
        // when this directory is one, so it never walks up into an
        // unrelated parent repository.
        let git_rev = std::path::Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "--short", "HEAD"])
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            })
            .flatten()
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: env!("BENCH_RUSTC_VERSION"),
            profile: env!("BENCH_PROFILE"),
            git_rev,
        }
    }

    /// The identity as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cores", Json::Num(self.cores as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(self.rustc)),
            ("profile", Json::str(self.profile)),
            ("git_rev", Json::str(&self.git_rev)),
        ])
    }
}

/// Cumulative resource counters of this process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU seconds.
    pub cpu_user_s: f64,
    /// System CPU seconds.
    pub cpu_sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Bytes passed to `read`-like syscalls (`rchar`).
    pub rchar: u64,
    /// Bytes passed to `write`-like syscalls (`wchar`).
    pub wchar: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub vm_hwm_kib: u64,
}

/// `utime`/`stime` are in clock ticks; Linux reports `USER_HZ = 100` to
/// user space on every mainstream architecture, and std offers no
/// `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

impl ProcSample {
    /// Reads `/proc/self/{stat,status,io}`. Unreadable fields stay 0
    /// (non-Linux hosts), which the correctness gate then rejects for
    /// `peak_rss_mb`.
    pub fn now() -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name, which may
            // itself contain spaces: state is field 3.
            if let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let num = |field: usize| f.get(field - 3).and_then(|v| v.parse::<u64>().ok());
                s.minor_faults = num(10).unwrap_or(0);
                s.cpu_user_s = num(14).unwrap_or(0) as f64 / TICKS_PER_SECOND;
                s.cpu_sys_s = num(15).unwrap_or(0) as f64 / TICKS_PER_SECOND;
            }
        }
        let field = |text: &str, key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        };
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            s.vm_hwm_kib = field(&status, "VmHWM:").unwrap_or(0);
        }
        if let Ok(io) = std::fs::read_to_string("/proc/self/io") {
            s.rchar = field(&io, "rchar:").unwrap_or(0);
            s.wchar = field(&io, "wchar:").unwrap_or(0);
        }
        s
    }
}

/// Restarts the kernel's record of this process's peak resident set
/// (`VmHWM`) from its current size, so that a later [`ProcSample`] reads
/// the peak since this call. Where the kernel refuses, the record keeps
/// running from the start of the process.
pub fn restart_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `f` repeatedly until `budget` is spent (at least three times,
/// at most 10 000) and returns the median seconds of one call.
pub fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples).expect("at least three samples")
}

/// [`median_secs`] for a kernel that can fail: stops calling `f` at its
/// first error and returns it.
pub fn try_median_secs(
    budget: Duration,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut failure = None;
    let secs = median_secs(budget, || {
        if failure.is_none() {
            failure = f().err();
        }
    });
    failure.map_or(Ok(secs), Err)
}

/// In-run calibration: a plain column sum and a memcpy over 8 MiB
/// buffers — past the 4 MiB L2, and small enough (16 MiB live at most,
/// freed before set-up starts) to stay under every workload's own peak
/// so `peak_rss_mb` never reports the calibration. `ns/row` figures
/// from two hosts can be divided by these.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// ns per `f64` element of a sequential sum over 1 Mi elements.
    pub sum_ns_per_row: f64,
    /// ns per byte of an 8 MiB `copy_from_slice`.
    pub memcpy_ns_per_byte: f64,
}

impl Calibration {
    /// Measures both kernels within `budget` each.
    pub fn measure(budget: Duration) -> Calibration {
        const ROWS: usize = 1 << 20;
        let sum_s = {
            let column: Vec<f64> = (0..ROWS).map(|i| (i % 1024) as f64).collect();
            median_secs(budget, || {
                black_box(black_box(&column).iter().sum::<f64>());
            })
        };
        let src = vec![0xA5u8; ROWS * 8];
        let mut dst = vec![0u8; ROWS * 8];
        let copy_s = median_secs(budget, || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        });
        Calibration {
            sum_ns_per_row: sum_s * 1e9 / ROWS as f64,
            memcpy_ns_per_byte: copy_s * 1e9 / (ROWS * 8) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_read_and_monotone() {
        let a = ProcSample::now();
        let ballast = vec![1u8; 8 << 20];
        black_box(&ballast);
        let b = ProcSample::now();
        assert!(a.vm_hwm_kib > 0, "VmHWM must be readable on Linux");
        assert!(b.vm_hwm_kib >= a.vm_hwm_kib);
        assert!(b.minor_faults >= a.minor_faults);
        assert!(b.rchar > a.rchar, "reading /proc is itself rchar");
    }

    #[test]
    fn median_secs_runs_at_least_three_times() {
        let mut calls = 0;
        let s = median_secs(Duration::ZERO, || calls += 1);
        assert_eq!(calls, 3);
        assert!(s >= 0.0);
    }

    #[test]
    fn host_identity_has_no_empty_field() {
        let h = Host::detect();
        assert!(h.cores >= 1);
        for s in [h.cpu_model.as_str(), h.rustc, h.profile, h.git_rev.as_str()] {
            assert!(!s.is_empty());
        }
        assert!(h.rustc.starts_with("rustc"), "{}", h.rustc);
    }
}
