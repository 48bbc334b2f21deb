//! The paper's claims, each asserted once, through the measurement the
//! figures plot: [`sharing_speedup`]'s window of six closed-loop rounds
//! (shared groups complete in bursts of `m`), [`policy_comparison`] and
//! [`profile_all`], on [`ExpConfig::quick`]'s catalog. Every point
//! carries the bounds listed beside it; the bounds are the paper's
//! shapes at reduced scale, not measured values.

use cordoba_bench::engine_cfg;
use cordoba_bench::experiments::{
    policy_comparison, profile_all, query_work, sharing_speedup, ExpConfig, PolicyPoint,
};
use cordoba_engine::{Policy, QuerySpec, Run, Source, Stop};
use cordoba_storage::Catalog;
use cordoba_workload::{q1, q4, q6};

/// `(m, n, lo, hi)`: `Z` at `m` clients on `n` contexts lies in
/// `(lo, hi)`.
type Bound = (usize, usize, f64, f64);

const INF: f64 = f64::INFINITY;

/// Measures the query `spec` builds at every distinct `(m, n)` of
/// `bounds`, one worker per query, asserts each bound, and returns `Z`
/// by point for the claim's comparisons across points. Every point must
/// measure both modes.
fn claim(
    spec: fn(&cordoba_workload::CostProfile) -> QuerySpec,
    bounds: &[Bound],
) -> impl Fn(usize, usize) -> f64 {
    let cfg = ExpConfig::quick();
    let catalog: Catalog = cfg.catalog();
    let spec = spec(&cfg.costs);
    let work = query_work(&catalog, &spec);
    assert!(work > 0, "solo profiling measured no work");
    let mut points: Vec<(usize, usize, f64)> = Vec::new();
    for &(m, n, lo, hi) in bounds {
        let z = match points.iter().find(|p| (p.0, p.1) == (m, n)) {
            Some(&(_, _, z)) => z,
            None => {
                let p = sharing_speedup(&catalog, &spec, m, n, 1, work, cfg.measure_floor);
                assert!(p.shared > 0.0 && p.unshared > 0.0, "{}: {p:?}", spec.name);
                assert_eq!((p.clients, p.contexts), (m, n));
                points.push((m, n, p.z));
                p.z
            }
        };
        assert!(
            z > lo && z < hi,
            "{} m={m} n={n}: Z = {z}, expected in ({lo}, {hi})",
            spec.name
        );
    }
    move |m, n| {
        let at = points.iter().find(|p| (p.0, p.1) == (m, n));
        at.expect("a measured point").2
    }
}

#[test]
fn figure1_q6_sharing_helps_uniprocessor_hurts_cmp() {
    let z = claim(
        q6,
        &[
            (8, 1, 1.3, 2.2),    // ~1.4-1.8x on one CPU
            (16, 32, 0.0, 0.35), // a large loss on 32
            (8, 8, 0.0, INF),
        ],
    );
    // Monotone story: more processors, less attractive sharing.
    let (z1, z8, z32) = (z(8, 1), z(8, 8), z(16, 32));
    assert!(z1 > z8 && z8 > z32, "z1={z1} z8={z8} z32={z32}");
}

#[test]
fn figure2_scan_heavy_flattens_join_heavy_keeps_growing() {
    // Scan-heavy speedup levels off with clients on 1 CPU ...
    let z = claim(q6, &[(4, 1, 0.0, INF), (24, 1, 0.0, INF)]);
    let (z_small, z_large) = (z(4, 1), z(24, 1));
    assert!(
        z_large < z_small * 1.8,
        "q6 should plateau: {z_small} -> {z_large}"
    );
    assert!(
        z_large > z_small,
        "but still grow slightly: {z_small} -> {z_large}"
    );
    // ... while join-heavy speedup keeps climbing roughly with m.
    let j = claim(q4, &[(4, 1, 0.0, INF), (16, 1, 8.0, INF)]);
    let (j_small, j_large) = (j(4, 1), j(16, 1));
    assert!(
        j_large > j_small * 2.0,
        "q4 keeps growing: {j_small} -> {j_large}"
    );
}

#[test]
fn figure2_join_heavy_sharing_never_loses() {
    let _ = claim(
        q4,
        &[(4, 2, 0.97, INF), (8, 8, 0.97, INF), (16, 32, 0.97, INF)],
    );
}

/// Figure 6's three policies on a half-Q4 Q1/Q4 mix.
fn policies(clients: usize, contexts: usize) -> PolicyPoint {
    let cfg = ExpConfig::quick();
    let catalog = cfg.catalog();
    let models = profile_all(&catalog, &[q1(&cfg.costs), q4(&cfg.costs)]);
    let floor = cfg.measure_floor;
    policy_comparison(&catalog, &cfg.costs, &models, clients, contexts, 0.5, floor)
}

#[test]
fn figure6_policy_ordering_on_large_machine() {
    let p = policies(24, 32);
    let (never, always, model) = (p.never, p.always, p.model);
    // The paper's 32-CPU panel: model > never >> always.
    assert!(model >= never * 0.98, "model {model} vs never {never}");
    assert!(never > always * 1.3, "never {never} vs always {always}");
    assert!(model > always * 1.3, "model {model} vs always {always}");
}

#[test]
fn figure6_policy_ordering_on_small_machine() {
    let p = policies(12, 2);
    let (never, always, model) = (p.never, p.always, p.model);
    // The paper's 2-CPU panel: always-share wins; model tracks it.
    assert!(always > never, "always {always} vs never {never}");
    assert!(
        model >= always * 0.9,
        "model {model} must track always {always}"
    );
}

#[test]
fn shared_utilization_is_capped_while_unshared_scales() {
    // Section 6.1's utilization argument, observed on the engine: the
    // shared run leaves a 32-context machine mostly idle.
    let cfg = ExpConfig::quick();
    let catalog = cfg.catalog();
    let clients = vec![q6(&cfg.costs); 16];
    // Mean busy contexts of the closed system at 64 completions.
    let busy = |policy| {
        let source = Source::Closed(&clients);
        let mut run = Run::new(&catalog, &engine_cfg(32, policy), source, usize::MAX, false);
        run.advance(Stop::Completions {
            target: 64,
            time_cap: 8_000_000_000,
        });
        run.report().stats.mean_busy_contexts()
    };
    let busy_shared = busy(Policy::AlwaysShare);
    let busy_unshared = busy(Policy::NeverShare);
    assert!(
        busy_shared < 6.0,
        "shared Q6 should use only a few contexts, got {busy_shared:.1}"
    );
    assert!(
        busy_unshared > 16.0,
        "unshared Q6 should use most of the machine, got {busy_unshared:.1}"
    );
}
