//! Expected results from `exec::reference`, as digests.
//!
//! The tuple-at-a-time oracle materialises every intermediate result
//! (≈ 100 MB at the committed sizing), which would set the `VmHWM` that
//! `peak_rss_mb` reports. So a measuring process never runs it: it
//! starts this same binary with `--oracle`, which regenerates the
//! inputs from the seed, runs the oracle and prints one digest per
//! query. Comparing digests of canonicalised rows (floats by bit
//! pattern) is the same check as comparing the rows.

use crate::inputs::{self, Kind, Seeds, Sizing};
use cordoba_exec::reference;
use cordoba_storage::Value;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The oracle's answer for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Query name (for messages).
    pub name: String,
    /// Digest of the canonicalised rows.
    pub digest: u64,
    /// Number of rows.
    pub rows: usize,
}

/// All expected answers of a workload, in `inputs::specs` order, and
/// the seconds the oracle itself spent in `reference::execute`.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// One entry per spec of `inputs::specs`.
    pub expected: Vec<Expected>,
    /// Seconds inside `reference::execute` (per-layer metric
    /// `reference.expected_s`).
    pub reference_s: f64,
}

/// How a run obtains its expectations: `Oracle::from_child` in every
/// real run; the unit tests, whose executable is not the benchmark,
/// compute them in-process.
pub type OracleSource = fn(Kind, u64, Sizing) -> Result<Oracle, String>;

/// FNV-1a over a canonical encoding of the rows: order-insensitive
/// (rows are canonicalised first), type-tagged, floats by bit pattern.
pub fn digest(rows: Vec<Vec<Value>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in reference::canonicalize(rows) {
        for value in &row {
            match value {
                Value::Int(v) => {
                    eat(b"i");
                    eat(&v.to_le_bytes());
                }
                Value::Float(v) => {
                    eat(b"f");
                    eat(&v.to_bits().to_le_bytes());
                }
                Value::Date(v) => {
                    eat(b"d");
                    eat(&v.0.to_le_bytes());
                }
                Value::Str(v) => {
                    eat(b"s");
                    eat(&(v.len() as u64).to_le_bytes());
                    eat(v.as_bytes());
                }
            }
        }
        eat(b"\n");
    }
    h
}

impl Oracle {
    /// Runs the oracle over freshly generated inputs, in this process.
    pub fn compute(kind: Kind, seeds: Seeds, sizing: Sizing) -> Oracle {
        let catalog = inputs::catalog(kind, seeds, sizing);
        let specs = inputs::specs(kind, seeds);
        let started = Instant::now();
        let expected = specs
            .iter()
            .map(|spec| {
                let rows = reference::execute(&catalog, &spec.plan);
                Expected {
                    name: spec.name.clone(),
                    rows: rows.len(),
                    digest: digest(rows),
                }
            })
            .collect();
        Oracle {
            expected,
            reference_s: started.elapsed().as_secs_f64(),
        }
    }

    /// The lines the `--oracle` child prints.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for e in &self.expected {
            out.push_str(&format!("expect {:016x} {} {}\n", e.digest, e.rows, e.name));
        }
        out.push_str(&format!("reference_s {}\n", self.reference_s));
        out
    }

    /// Parses the child's output.
    pub fn from_lines(text: &str) -> Result<Oracle, String> {
        let mut expected = Vec::new();
        let mut reference_s = None;
        for line in text.lines() {
            let mut parts = line.splitn(4, ' ');
            match parts.next() {
                Some("expect") => {
                    let bad = || format!("oracle: malformed line {line:?}");
                    let digest = parts
                        .next()
                        .and_then(|d| u64::from_str_radix(d, 16).ok())
                        .ok_or_else(bad)?;
                    let rows = parts.next().and_then(|r| r.parse().ok()).ok_or_else(bad)?;
                    let name = parts.next().ok_or_else(bad)?.to_string();
                    expected.push(Expected { name, digest, rows });
                }
                Some("reference_s") => reference_s = parts.next().and_then(|s| s.parse().ok()),
                _ => {}
            }
        }
        match reference_s {
            Some(reference_s) if !expected.is_empty() => Ok(Oracle {
                expected,
                reference_s,
            }),
            _ => Err("oracle: child printed no expectations".into()),
        }
    }

    /// Runs the oracle in a child process of this binary and reads its
    /// answer.
    pub fn from_child(kind: Kind, seed: u64, sizing: Sizing) -> Result<Oracle, String> {
        let exe = std::env::current_exe().map_err(|e| format!("oracle: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--oracle", "--workload", kind.name(), "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if sizing == Sizing::QUICK {
            cmd.arg("--quick");
        }
        // `output` waits for the child, so none outlives us.
        let out = cmd.output().map_err(|e| format!("oracle: spawn: {e}"))?;
        if !out.status.success() {
            return Err(format!("oracle: child exited with {}", out.status));
        }
        Oracle::from_lines(&String::from_utf8_lossy(&out.stdout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::Date;

    #[test]
    fn digest_ignores_row_order_and_sees_float_bits() {
        let a = vec![
            Value::Int(1),
            Value::Float(0.1 + 0.2),
            Value::Str("x".into()),
        ];
        let b = vec![
            Value::Int(2),
            Value::Date(Date(9)),
            Value::Str(String::new()),
        ];
        let d = digest(vec![a.clone(), b.clone()]);
        assert_eq!(d, digest(vec![b.clone(), a.clone()]));
        let mut off = a.clone();
        off[1] = Value::Float(0.3); // one ulp away from 0.1 + 0.2
        assert_ne!(d, digest(vec![off, b.clone()]));
        assert_ne!(
            digest(vec![vec![Value::Float(0.0)]]),
            digest(vec![vec![Value::Float(-0.0)]])
        );
        assert_ne!(digest(vec![a.clone()]), digest(vec![a.clone(), a]));
        assert_ne!(digest(vec![]), digest(vec![vec![]]));
    }

    #[test]
    fn child_protocol_round_trips() {
        let o = Oracle {
            expected: vec![
                Expected {
                    name: "q1".into(),
                    digest: 0x00ab_cdef_0123_4567,
                    rows: 4,
                },
                Expected {
                    name: "fam 0 member 3".into(),
                    digest: u64::MAX,
                    rows: 0,
                },
            ],
            reference_s: 0.123_456_789,
        };
        assert_eq!(Oracle::from_lines(&o.to_lines()), Ok(o));
        assert!(Oracle::from_lines("noise\n").is_err());
        assert!(Oracle::from_lines("expect zz 1 q\nreference_s 1\n").is_err());
    }
}
