//! Cross-crate correctness: for every TPC-H query, the simulated engine
//! (shared and unshared, every policy) must produce exactly the rows
//! the synchronous reference executor and the naive straight-line
//! implementations produce.

use cordoba::engine::{run_once, EngineConfig, ParallelConfig, Policy};
use cordoba::exec::reference;
use cordoba::storage::tpch::{generate, TpchConfig};
use cordoba::storage::Value;
use cordoba::workload::queries::all;
use cordoba::workload::CostProfile;

/// Morsel workers every test runs at: the serial wiring and one whose
/// scan chains and aggregates become morsel groups.
const WORKERS: [usize; 2] = [1, 4];

fn cfg(contexts: usize, policy: Policy, workers: usize) -> EngineConfig {
    EngineConfig {
        contexts,
        policy,
        parallel: ParallelConfig::with_workers(workers),
        ..EngineConfig::default()
    }
}

fn catalog() -> cordoba::storage::Catalog {
    generate(&TpchConfig {
        scale_factor: 0.002,
        seed: 99,
        ..TpchConfig::default()
    })
}

#[test]
fn every_query_matches_reference_unshared_and_shared() {
    let catalog = catalog();
    for spec in all(&CostProfile::paper()) {
        let expected = reference::execute(&catalog, &spec.plan);
        assert!(!expected.is_empty(), "{} must return rows", spec.name);
        for (policy, label) in [
            (Policy::NeverShare, "never"),
            (Policy::AlwaysShare, "always"),
        ] {
            for workers in WORKERS {
                let cfg = cfg(4, policy.clone(), workers);
                let out = run_once(&catalog, &vec![spec.clone(); 3], &cfg);
                for (i, rows) in out.results.iter().enumerate() {
                    assert_eq!(
                        rows, &expected,
                        "{} member {i} under {label}, {workers} workers, diverged",
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn shared_groups_form_only_under_sharing_policies() {
    let catalog = catalog();
    let batch = vec![all(&CostProfile::paper())[0].clone(); 4];
    for workers in WORKERS {
        let never = run_once(&catalog, &batch, &cfg(2, Policy::NeverShare, workers));
        assert_eq!(never.group_sizes, vec![1, 1, 1, 1]);
        let always = run_once(&catalog, &batch, &cfg(2, Policy::AlwaysShare, workers));
        assert_eq!(always.group_sizes, vec![4]);
    }
}

#[test]
fn q6_revenue_matches_naive_through_the_simulated_engine() {
    let catalog = catalog();
    let batch = vec![cordoba::workload::q6(&CostProfile::paper()); 2];
    let naive = cordoba::workload::naive::q6(&catalog);
    for workers in WORKERS {
        let out = run_once(&catalog, &batch, &cfg(8, Policy::AlwaysShare, workers));
        for rows in &out.results {
            assert_eq!(rows.len(), 1);
            let got = rows[0][0].as_float().unwrap();
            assert!(
                (got - naive).abs() < 1e-6 * naive.abs(),
                "{workers} workers"
            );
        }
    }
}

#[test]
fn mixed_q1_q6_group_merges_at_the_common_scan_and_stays_correct() {
    // Q1 and Q6 share the identical lineitem scan: a mixed group must
    // merge into one scan and still produce each query's own answer.
    let catalog = catalog();
    let costs = CostProfile::paper();
    let q1 = cordoba::workload::q1(&costs);
    let q6 = cordoba::workload::q6(&costs);
    let expect_q1 = reference::execute(&catalog, &q1.plan);
    let expect_q6 = reference::execute(&catalog, &q6.plan);
    for workers in WORKERS {
        let cfg = cfg(4, Policy::AlwaysShare, workers);
        let out = run_once(&catalog, &[q1.clone(), q6.clone(), q1.clone()], &cfg);
        assert_eq!(out.group_sizes, vec![3], "Q1+Q6 must merge at the scan");
        let want = [expect_q1.clone(), expect_q6.clone(), expect_q1.clone()];
        assert_eq!(out.results, want, "{workers} workers");
    }
}

#[test]
fn clients_with_different_predicates_share_one_scan() {
    // The paper's Figure 1 setup verbatim: "Different clients use
    // different predicates, however, all clients share the common task
    // of scanning the same large table before applying their private
    // predicates."
    use cordoba::workload::{q6_with_params, Q6Params};
    let catalog = catalog();
    let costs = CostProfile::paper();
    let clients: Vec<_> = (0..6)
        .map(|c| q6_with_params(&costs, Q6Params::for_client(c)))
        .collect();
    let expected: Vec<_> = clients
        .iter()
        .map(|spec| reference::execute(&catalog, &spec.plan))
        .collect();
    for workers in WORKERS {
        let out = run_once(&catalog, &clients, &cfg(4, Policy::AlwaysShare, workers));
        // One group, one scan, six private filter/aggregate chains.
        assert_eq!(out.group_sizes, vec![6]);
        let scans = out
            .task_stats
            .iter()
            .filter(|(n, _)| n.contains("scan(lineitem)"))
            .count();
        assert_eq!(scans, 1, "exactly one shared scan instance");
        assert_eq!(out.results, expected, "{workers} workers");
    }
    // Every client gets its own (distinct, correct) answer.
    let revenues: Vec<f64> = expected
        .iter()
        .map(|rows| rows[0][0].as_float().unwrap())
        .collect();
    let distinct = {
        let mut r: Vec<u64> = revenues.iter().map(|v| v.to_bits()).collect();
        r.sort_unstable();
        r.dedup();
        r.len()
    };
    assert!(
        distinct >= 4,
        "different predicates give different revenues: {revenues:?}"
    );
}

#[test]
fn model_guided_policy_results_always_correct() {
    // Whatever the policy decides, answers must not change.
    let catalog = catalog();
    let costs = CostProfile::paper();
    let specs = [
        cordoba::workload::q4(&costs),
        cordoba::workload::q4(&costs),
        cordoba::workload::q13(&costs),
    ];
    let models = {
        let mut m = std::collections::HashMap::new();
        for spec in [
            cordoba::workload::q4(&costs),
            cordoba::workload::q13(&costs),
        ] {
            let (info, _) = cordoba::engine::profiling::profile_query(
                &catalog,
                &spec,
                &EngineConfig::default(),
            )
            .expect("profiling succeeds");
            m.insert(spec.name.clone(), info);
        }
        m
    };
    let policy = Policy::model_guided(models);
    for workers in WORKERS {
        let out = run_once(&catalog, &specs, &cfg(2, policy.clone(), workers));
        for (spec, rows) in specs.iter().zip(&out.results) {
            let want = reference::execute(&catalog, &spec.plan);
            assert_eq!(rows, &want, "{} at {workers} workers", spec.name);
        }
    }
}

#[test]
fn results_are_deterministic_across_runs() {
    let catalog = catalog();
    let spec = cordoba::workload::q13(&CostProfile::paper());
    for workers in WORKERS {
        let cfg = cfg(8, Policy::AlwaysShare, workers);
        let a = run_once(&catalog, &vec![spec.clone(); 3], &cfg);
        let b = run_once(&catalog, &vec![spec.clone(); 3], &cfg);
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan, b.makespan, "virtual time must be bit-identical");
        let rows_a: Vec<Vec<Value>> = a.results.into_iter().flatten().collect();
        assert!(!rows_a.is_empty());
    }
}
