//! The synthetic model workloads of the paper's sensitivity analysis
//! (Section 6).

use cordoba_core::{NodeId, OperatorSpec, PlanSpec};

/// The 3-stage query of Section 6 / Figure 3 with pivot output cost
/// `s`: bottom `p = 10`, pivot `w = 6`, top `p = 10` (Figure 4 center
/// sweeps s ∈ {0, .25, .5, 1, 2, 4}). At the baseline `s = 1` work
/// sharing eliminates ~60% of the query's work; `u = 2.7` processors
/// per query at peak.
pub fn three_stage_with_s(s: f64) -> (PlanSpec, NodeId) {
    let mut b = PlanSpec::new();
    let bottom = b.add_leaf(OperatorSpec::new("bottom", vec![10.0], vec![]));
    let pivot = b.add_node(OperatorSpec::new("pivot", vec![6.0], vec![s]), vec![bottom]);
    let top = b.add_node(OperatorSpec::new("top", vec![10.0], vec![]), vec![pivot]);
    (b.finish(top).expect("valid pipeline"), pivot)
}

/// The Section 6.3 variant: the top operator split into five balanced
/// stages of `p = 8` each; `moved_below` of them (0..=5) are relocated
/// below the pivot, growing the fraction of work sharing eliminates
/// from 28% to 98%.
///
/// # Panics
///
/// Panics if `moved_below > 5`.
pub fn five_way_split(moved_below: usize) -> (PlanSpec, NodeId) {
    assert!(moved_below <= 5, "only five stages exist");
    let mut b = PlanSpec::new();
    let mut below = b.add_leaf(OperatorSpec::new("bottom", vec![10.0], vec![]));
    for i in 0..moved_below {
        below = b.add_node(
            OperatorSpec::new(format!("below{i}"), vec![8.0], vec![]),
            vec![below],
        );
    }
    let pivot = b.add_node(
        OperatorSpec::new("pivot", vec![6.0], vec![1.0]),
        vec![below],
    );
    let mut above = pivot;
    for i in moved_below..5 {
        above = b.add_node(
            OperatorSpec::new(format!("above{i}"), vec![8.0], vec![]),
            vec![above],
        );
    }
    (b.finish(above).expect("valid pipeline"), pivot)
}

/// Fraction of per-query work that sharing eliminates for
/// [`five_way_split`] `(moved_below)`: everything below the pivot plus
/// the pivot's private work, over the total.
pub fn eliminated_fraction(moved_below: usize) -> f64 {
    let below = 10.0 + 8.0 * moved_below as f64;
    let total = 10.0 + 7.0 + 40.0;
    (below + 6.0) / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_core::QueryModel;

    #[test]
    fn three_stage_matches_paper_anchors() {
        let (plan, pivot) = three_stage_with_s(1.0);
        let q = QueryModel::new(&plan);
        assert!((q.total_work() - 27.0).abs() < 1e-12);
        assert!((q.peak_utilization() - 2.7).abs() < 1e-12);
        assert_eq!(plan.op(pivot).name, "pivot");
        assert!((plan.op(pivot).w() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn s_sweep_changes_only_pivot_output() {
        for s in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
            let (plan, pivot) = three_stage_with_s(s);
            assert!((plan.op(pivot).s_per_consumer() - s).abs() < 1e-12);
            assert!((plan.op(pivot).w() - 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn five_way_split_fractions_match_paper_labels() {
        // Paper Figure 4 (right) legend: 0/5 (28%) ... 5/5 (98%).
        let expected = [0.28, 0.42, 0.56, 0.70, 0.84, 0.98];
        for (j, want) in expected.iter().enumerate() {
            let got = eliminated_fraction(j);
            assert!((got - want).abs() < 0.005, "j={j}: {got} vs {want}");
        }
    }

    #[test]
    fn five_way_split_total_work_constant() {
        for j in 0..=5 {
            let (plan, _) = five_way_split(j);
            let q = QueryModel::new(&plan);
            assert!((q.total_work() - 57.0).abs() < 1e-12, "j={j}");
            assert_eq!(plan.len(), 7);
        }
    }

    #[test]
    fn five_way_pivot_position_changes() {
        let (plan0, pivot0) = five_way_split(0);
        assert!(plan0.below(pivot0).unwrap().len() == 1); // bottom only
        let (plan5, pivot5) = five_way_split(5);
        assert_eq!(plan5.below(pivot5).unwrap().len(), 6);
        assert!(plan5.above(pivot5).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "five stages")]
    fn six_moved_rejected() {
        five_way_split(6);
    }
}
