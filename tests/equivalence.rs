//! Sharing is a scheduling choice, never a semantic one: every shared,
//! parallel, spilled, cached or threaded run returns
//! `exec::reference`'s rows. One plan generator × one configuration
//! generator (`fuzz`) draws the cases; each substrate runs its own
//! default cases here, and `deep` runs ten times as many of each
//! (`cargo test --release --test equivalence -- --ignored`). A failing
//! case prints its number, here or in any file that runs the fuzzer; add
//! it to `REGRESSIONS` to replay it.
//!
//! Slices of the same case space, and each feature's fixed cases, run
//! through the same check in `parallel_equivalence.rs`,
//! `spill_equivalence.rs`, `subsume_equivalence.rs`,
//! `policy_correctness.rs` and `vectorized_equivalence.rs`.

mod fuzz;

use cordoba::storage::{Date, Value};
use fuzz::Substrate;

/// Default cases per substrate.
const CASES: u64 = 40;

/// Case numbers that once failed, replayed on every run.
const REGRESSIONS: &[u64] = &[
    // Subsumption lost `k < 3.5` beside `k <= 10` (an int bound cannot
    // order a float one) and served `10 >= k` with residual `True`.
    549_755_815_364,
];

#[test]
fn engine_batch() {
    fuzz::run_cases(Substrate::Batch, CASES, &["spill", "group>1", "subsume"]);
}

#[test]
fn engine_schedule() {
    fuzz::run_cases(Substrate::Schedule, CASES, &["group>1", "cache-hit"]);
}

#[test]
fn local_threads() {
    fuzz::run_cases(Substrate::Threads, CASES, &["spill", "merge-span"]);
}

#[test]
fn thread_seam() {
    fuzz::run_cases(Substrate::Seam, CASES, &["group>1"]);
}

#[test]
#[ignore = "ten times the default cases; run with --release -- --ignored"]
fn deep() {
    for substrate in fuzz::SUBSTRATES {
        fuzz::run_cases(substrate, 10 * CASES, &[]);
    }
}

#[test]
fn regressions() {
    REGRESSIONS.iter().for_each(|&n| fuzz::replay(n));
}

#[test]
fn one_row_encoding_tells_strings_dates_and_signed_zeros_apart() {
    let row = |s: &str, day, z| {
        vec![vec![
            Value::Str(s.into()),
            Value::Date(Date(day)),
            Value::Float(z),
        ]]
    };
    let (base, nan) = (row("ab", 10, 0.0), row("ab", 10, f64::NAN));
    for ordered in [true, false] {
        let same = |a: &[Vec<Value>], b: &[Vec<Value>]| fuzz::same_rows(a, b, ordered).is_ok();
        assert!(same(&base, &row("ab", 10, 0.0)) && same(&nan, &nan));
        assert!(!same(&base, &row("ba", 10, 0.0)));
        assert!(!same(&base, &row("ab", 99, 0.0)));
        assert!(!same(&base, &row("ab", 10, -0.0)));
    }
}
