//! Calibrated per-operator virtual costs.
//!
//! Virtual cost units decouple simulated time from host speed. The
//! calibration anchors the scan to the paper's profiled TPC-H Q6
//! parameters (Section 4.4): the scan performs `w = 9.66` units per
//! scanned tuple and pays `s = 10.34` units per tuple *per consumer* it
//! delivers pages to — the dominant `s` that makes scan-sharing a
//! serialization bottleneck. Join output cost is small relative to the
//! scan/join work (Section 3.3: "the per-sharer work at the pivot
//! (join) is insignificant"), which is why join-heavy sharing always
//! wins in the paper.

use cordoba_exec::OpCost;

/// The cost parameters used to build query plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Table scan (the Q1/Q6 pivot).
    pub scan: OpCost,
    /// Streaming filter.
    pub filter: OpCost,
    /// Hash aggregation (light: Q6's single SUM).
    pub aggregate: OpCost,
    /// Heavy hash aggregation (Q1's eight aggregates over ~98% of the
    /// table — the paper's Q1 exhibits markedly more above-pivot work
    /// than Q6, visible in its lower 1-CPU sharing speedup).
    pub heavy_aggregate: OpCost,
    /// Hash-join build side.
    pub join_build: OpCost,
    /// Hash-join probe side; its `out_per_tuple` is the join pivot's `s`.
    pub join_probe: OpCost,
    /// Sort.
    pub sort: OpCost,
    /// Client-side sink.
    pub sink: OpCost,
}

impl CostProfile {
    /// Calibration matching the paper's profiled parameters.
    pub fn paper() -> Self {
        Self {
            // Section 4.4: w = 9.66, s = 10.34 per scanned tuple.
            scan: OpCost::new(9.66, 10.34),
            // The private predicate + aggregate work per scanned tuple
            // was 0.97 in the paper; we split it between the filter
            // (sees every tuple) and the aggregate (sees survivors).
            filter: OpCost::new(0.8, 0.1),
            aggregate: OpCost::new(0.9, 0.1),
            heavy_aggregate: OpCost::new(3.0, 0.1),
            // Join work dominates; its per-consumer output cost is
            // insignificant, as measured for Q4/Q13. The weights give
            // join-heavy queries the pipeline utilization (~1.6-1.8
            // processors per query) implied by the paper's Figure 2
            // right panel (sharing still wins at 32 CPUs under ~20+
            // clients, which requires unshared saturation there).
            join_build: OpCost::per_tuple(10.0),
            join_probe: OpCost::new(10.0, 0.4),
            sort: OpCost::new(4.0, 1.0),
            sink: OpCost::per_tuple(0.1),
        }
    }
}

impl Default for CostProfile {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_section_4_4_scan() {
        let p = CostProfile::paper();
        assert!((p.scan.per_tuple - 9.66).abs() < 1e-12);
        assert!((p.scan.out_per_tuple - 10.34).abs() < 1e-12);
        // Scan p (one consumer) = 20 per unit progress, the paper's
        // p_max for Q6.
        assert_eq!(p.scan.input_cost(100) + p.scan.output_cost(100), 2000);
    }

    #[test]
    fn join_output_cost_is_insignificant_vs_scan() {
        let p = CostProfile::paper();
        assert!(p.join_probe.out_per_tuple < p.scan.out_per_tuple / 10.0);
    }
}
