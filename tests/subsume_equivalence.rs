//! Subsumption-based sharing returns each query's own rows: a slice of
//! the differential fuzzer (`fuzz`) whose batches share one pivot under
//! nested predicate windows, so a wide fragment serves narrower members
//! through residual filters, and fixed cases that replay late arrivals
//! from the fragment cache. Every case goes through the fuzzer's one
//! check against `exec::reference`, float bits included; a failing case
//! prints its number for `REGRESSIONS` in `tests/equivalence.rs`.

mod fuzz;

use cordoba::workload::{family_specs, CostProfile, FamilyConfig};
use fuzz::Substrate::{Batch, Schedule};
use fuzz::{Case, Config};

/// Shared batches of two or more members, across workers, budgets,
/// contexts and the fragment cache: subsumption joins run.
#[test]
fn shared_subsumption_is_bit_exact() {
    let (shared, members) = (|c: &Config| c.share, |c: &Case| c.queries.len() > 1);
    let name = "shared_subsumption_is_bit_exact";
    fuzz::run_slice(name, Batch, 4, shared, members, &["group>1", "subsume"]);
}

/// One nested-window family of `members`, the widest arriving first and
/// the rest long after it completed, always shared.
fn staggered_family(members: usize, cache: usize) -> Case {
    let family = FamilyConfig {
        seed: 42,
        families: 1,
        per_family: members,
    };
    let specs = family_specs(&CostProfile::paper(), &family).into_iter();
    let queries = specs
        .enumerate()
        .map(|(i, q)| (40_000_000 * u64::from(i > 0), q));
    let config = Config {
        substrate: Schedule,
        share: true,
        cache,
        contexts: 2,
        ..Config::default()
    };
    Case::new(fuzz::tpch().clone(), queries.collect(), config)
}

/// A late arrival whose window is nested inside an already-completed
/// fragment is served from the fragment cache: the replay is row for row
/// the reference, and faster than the cold run.
#[test]
fn cache_replay_serves_late_arrivals_exactly() {
    let seen = fuzz::checked(&staggered_family(3, 8));
    assert!(seen.sharing.fingerprint_hits >= 1, "{:?}", seen.sharing);
    // Replayed queries skip the scan entirely.
    let (cold, warm) = seen.response_times.split_first().expect("completions");
    assert!(warm.iter().all(|w| w < cold), "{warm:?} vs cold {cold}");
}

/// With the cache off (the default) the same schedule records no cache
/// activity: the knob really gates the subsystem.
#[test]
fn cache_disabled_by_default_records_no_activity() {
    let seen = fuzz::checked(&staggered_family(2, 0));
    let lookups = seen.sharing.fingerprint_hits + seen.sharing.fingerprint_misses;
    assert_eq!(lookups, 0);
}
