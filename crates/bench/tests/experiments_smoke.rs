//! Integration: the experiment harness behind the `figures` binary runs
//! end-to-end at a tiny scale and produces sane measurements — the
//! same code path CI would need to regenerate every figure.

use cordoba_bench::experiments::{query_work, sharing_speedup, ExpConfig};
use cordoba_workload::q6;

#[test]
fn q6_speedup_point_measures_both_modes() {
    let cfg = ExpConfig::quick();
    let catalog = cfg.catalog();
    let spec = q6(&cfg.costs);
    let work = query_work(&catalog, &spec);
    assert!(work > 0, "solo profiling measured no work");
    let point = sharing_speedup(&catalog, &spec, 4, 2, 1, work, 6);
    assert!(point.shared > 0.0, "shared throughput not measured");
    assert!(point.unshared > 0.0, "unshared throughput not measured");
    assert!(point.z.is_finite() && point.z > 0.0, "Z = {}", point.z);
    assert_eq!((point.clients, point.contexts), (4, 2));
}

#[test]
fn q6_sharing_beats_unshared_on_a_uniprocessor() {
    // The paper's headline Q6 effect at the measurement level: on one
    // context a shared batch outruns the unshared one.
    let cfg = ExpConfig::quick();
    let catalog = cfg.catalog();
    let spec = q6(&cfg.costs);
    let work = query_work(&catalog, &spec);
    let point = sharing_speedup(&catalog, &spec, 8, 1, 1, work, 6);
    assert!(
        point.z > 1.0,
        "sharing should win on 1 context: Z = {}",
        point.z
    );
}
