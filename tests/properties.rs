//! Property-based tests over the core invariants of the reproduction:
//! model laws, storage round-trips, operator/executor equivalence, and
//! estimator recovery under arbitrary (valid) inputs.

use cordoba::exec::expr::{CmpOp, Predicate};
use cordoba::exec::{reference, OpCost, PhysicalPlan};
use cordoba::model::estimate::{fit_pivot, PivotObservation};
use cordoba::model::mismatch::UnsharedGroup;
use cordoba::model::sharing::{GroupMember, SharingEvaluator, SystemKind, WorkerScaling};
use cordoba::model::{OperatorSpec, PlanSpec, QueryModel};
use cordoba::storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use proptest::prelude::*;

fn cost() -> impl Strategy<Value = f64> {
    (1u32..=2000).prop_map(|v| v as f64 / 100.0)
}

fn pipeline_costs() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(cost(), 2..6)
}

/// A group member: `s`, its operators above the pivot, coverage in
/// `(0, 1]` and a residual cost (zero under exact overlap).
fn member() -> impl Strategy<Value = GroupMember> {
    (
        cost(),
        proptest::collection::vec(cost(), 0..4),
        1u32..=20,
        0u32..=300,
    )
        .prop_map(|(s, above, c, r)| {
            let residual = if c == 20 { 0.0 } else { r as f64 / 100.0 };
            GroupMember::new(s, above).with_partial_overlap(c as f64 / 20.0, residual)
        })
}

fn system() -> impl Strategy<Value = SystemKind> {
    (0u8..2).prop_map(|open| {
        if open == 1 {
            SystemKind::Open
        } else {
            SystemKind::Closed
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// x(n) is non-decreasing in n and capped at the peak rate 1/p_max.
    #[test]
    fn model_rate_monotone_and_capped(costs in pipeline_costs(), steps in 1usize..6) {
        let plan = PlanSpec::pipeline(
            costs.iter().enumerate()
                .map(|(i, &c)| OperatorSpec::new(format!("s{i}"), vec![c], vec![]))
                .collect(),
        ).unwrap();
        let q = QueryModel::new(&plan);
        let mut prev = 0.0;
        for k in 1..=steps {
            let x = q.rate(k as f64).unwrap();
            prop_assert!(x + 1e-12 >= prev);
            prop_assert!(x <= q.peak_rate() + 1e-12);
            prev = x;
        }
    }

    /// Z(1, n) == 1: a group of one neither wins nor loses.
    #[test]
    fn singleton_group_is_neutral(below in cost(), w in cost(), s in cost(), above in cost(), n in 1u32..64) {
        let mut b = PlanSpec::new();
        let bot = b.add_leaf(OperatorSpec::new("b", vec![below], vec![]));
        let piv = b.add_node(OperatorSpec::new("p", vec![w], vec![s]), vec![bot]);
        let top = b.add_node(OperatorSpec::new("t", vec![above], vec![]), vec![piv]);
        let plan = b.finish(top).unwrap();
        let ev = SharingEvaluator::homogeneous(&plan, piv, 1).unwrap();
        prop_assert!((ev.speedup(n as f64) - 1.0).abs() < 1e-9);
    }

    /// One Z(m, n): the serial worker scaling is the paper's model bit
    /// for bit — against the default evaluator and, in a closed system,
    /// against the Section 4.2–4.3 / 5.1 equations written out here with
    /// no `e(k)` in them — and `Z` is the ratio of the two rates.
    #[test]
    fn serial_scaling_is_the_paper_model(
        below in proptest::collection::vec(cost(), 0..4),
        w in cost(),
        members in proptest::collection::vec(member(), 1..8),
        system in system(),
        n in cost(),
    ) {
        let ev = SharingEvaluator::from_parts(below.clone(), w, members.clone())
            .unwrap()
            .with_system(system);
        let base = ev.evaluate(n).unwrap();
        let serial = ev.clone().with_workers(WorkerScaling::serial()).evaluate(n).unwrap();
        for (a, b) in [
            (base.z, serial.z),
            (base.x_shared, serial.x_shared),
            (base.x_unshared, serial.x_unshared),
            (base.shared_utilization, serial.shared_utilization),
            (base.unshared_utilization, serial.unshared_utilization),
        ] {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(base.z.to_bits(), (base.x_shared / base.x_unshared).to_bits());

        let max = |it: &mut dyn Iterator<Item = f64>| it.fold(0.0_f64, f64::max);
        let m = members.len() as f64;
        let below_max = max(&mut below.iter().copied());
        let below_sum: f64 = below.iter().sum();
        let pivot_p = w + members.iter().map(|mb| mb.pivot_output_cost).sum::<f64>();
        let above_max = max(&mut members.iter().flat_map(|mb| mb.above.iter().copied().chain([mb.residual_cost])));
        let shared_work = below_sum
            + pivot_p
            + members.iter().map(|mb| mb.residual_cost + mb.above.iter().sum::<f64>()).sum::<f64>();
        let x_shared = m * (1.0 / below_max.max(pivot_p).max(above_max)).min(n / shared_work);
        prop_assert_eq!(base.x_shared.to_bits(), x_shared.to_bits());
        if system == SystemKind::Closed {
            let p_max = |mb: &GroupMember| {
                below_max
                    .max(w + mb.coverage * mb.pivot_output_cost)
                    .max(max(&mut mb.above.iter().copied()))
            };
            let work = |mb: &GroupMember| {
                below_sum + w + mb.coverage * mb.pivot_output_cost + mb.above.iter().sum::<f64>()
            };
            let r_mean = m / members.iter().map(p_max).sum::<f64>();
            let u_group: f64 = members.iter().map(|mb| work(mb) / p_max(mb)).sum();
            prop_assert_eq!(base.x_unshared.to_bits(), (m * r_mean * (n / u_group).min(1.0)).to_bits());
            prop_assert_eq!(base.unshared_utilization.to_bits(), u_group.to_bits());
        }
    }

    /// `mismatch::UnsharedGroup` has no formula of its own: it is the
    /// degenerate sharing group (nothing below the pivot, a zero-cost
    /// pivot) asked for its unshared side.
    #[test]
    fn unshared_group_is_the_degenerate_sharing_group(
        queries in proptest::collection::vec(pipeline_costs(), 1..6),
        system in system(),
        n in cost(),
    ) {
        let plans: Vec<PlanSpec> = queries.iter().map(|costs| PlanSpec::pipeline(
            costs.iter().enumerate()
                .map(|(i, &c)| OperatorSpec::new(format!("s{i}"), vec![c], vec![]))
                .collect(),
        ).unwrap()).collect();
        let group = UnsharedGroup::new(&plans.iter().collect::<Vec<_>>())
            .unwrap()
            .with_system(system);
        let degenerate = SharingEvaluator::from_parts(
            vec![],
            0.0,
            queries.iter().map(|costs| GroupMember::new(0.0, costs.clone())).collect(),
        ).unwrap().with_system(system);
        prop_assert_eq!(group.rate(n).unwrap().to_bits(), degenerate.unshared_rate(n).unwrap().to_bits());
        prop_assert_eq!(group.peak_utilization().to_bits(), degenerate.unshared_utilization().to_bits());
    }

    /// On a uniprocessor, sharing never hurts (any saved work helps,
    /// Section 3.3) — for fully pipelinable plans.
    #[test]
    fn uniprocessor_sharing_never_hurts(below in cost(), w in cost(), s in cost(), above in cost(), m in 2usize..32) {
        let mut b = PlanSpec::new();
        let bot = b.add_leaf(OperatorSpec::new("b", vec![below], vec![]));
        let piv = b.add_node(OperatorSpec::new("p", vec![w], vec![s]), vec![bot]);
        let top = b.add_node(OperatorSpec::new("t", vec![above], vec![]), vec![piv]);
        let plan = b.finish(top).unwrap();
        let ev = SharingEvaluator::homogeneous(&plan, piv, m).unwrap();
        prop_assert!(ev.speedup(1.0) >= 1.0 - 1e-9);
    }

    /// The pivot fit recovers exact (w, s) from noiseless observations.
    #[test]
    fn estimator_recovers_exact_parameters(w in cost(), s in cost()) {
        let obs: Vec<PivotObservation> = [1usize, 2, 5, 9]
            .iter()
            .map(|&m| PivotObservation {
                sharers: m,
                active_time: (w + s * m as f64) * 1000.0,
                progress_units: 1000.0,
            })
            .collect();
        let fit = fit_pivot(&obs).unwrap();
        prop_assert!((fit.w - w).abs() < 1e-6, "w {} vs {}", fit.w, w);
        prop_assert!((fit.s - s).abs() < 1e-6, "s {} vs {}", fit.s, s);
    }

    /// Page storage round-trips arbitrary rows bit-exactly.
    #[test]
    fn page_round_trip(rows in proptest::collection::vec(
        (any::<i64>(), any::<f64>(), -100_000i32..100_000, "[ -~]{0,12}"), 1..200)
    ) {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("d", DataType::Date),
            Field::new("s", DataType::Str(12)),
        ]);
        let mut tb = TableBuilder::with_page_size("t", schema, 256);
        let mut expected = Vec::new();
        for (i, f, d, s) in &rows {
            // Trailing spaces are not preserved (fixed-width padding).
            let s = s.trim_end_matches(' ').to_string();
            let row = vec![
                Value::Int(*i),
                Value::Float(*f),
                Value::Date(cordoba::storage::Date(*d)),
                Value::Str(s),
            ];
            tb.push_row(&row);
            expected.push(row);
        }
        let table = tb.finish();
        let got: Vec<Vec<Value>> = table.scan_values().collect();
        // NaN != NaN under PartialEq; compare with bit-equality for floats.
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.len(), e.len());
            for (gv, ev) in g.iter().zip(e) {
                match (gv, ev) {
                    (Value::Float(a), Value::Float(b)) => {
                        prop_assert_eq!(a.to_bits(), b.to_bits())
                    }
                    _ => prop_assert_eq!(gv, ev),
                }
            }
        }
    }

    /// LIKE matching agrees with a naive backtracking oracle.
    #[test]
    fn like_matches_oracle(s in "[a-c]{0,12}", pattern in "[a-c%]{0,8}") {
        fn oracle(s: &str, p: &str) -> bool {
            // Classic recursive matcher over bytes.
            fn go(s: &[u8], p: &[u8]) -> bool {
                match p.first() {
                    None => s.is_empty(),
                    Some(b'%') => {
                        (0..=s.len()).any(|k| go(&s[k..], &p[1..]))
                    }
                    Some(&c) => s.first() == Some(&c) && go(&s[1..], &p[1..]),
                }
            }
            go(s.as_bytes(), p.as_bytes())
        }
        prop_assert_eq!(
            cordoba::exec::reference::like_match(&s, &pattern),
            oracle(&s, &pattern),
            "s={:?} pattern={:?}", s, pattern
        );
    }

    /// A merge join over sorted inputs equals a hash inner join on the
    /// same data (§5.3's claim that the join families are semantically
    /// interchangeable once their blocking phases are accounted for).
    #[test]
    fn merge_join_equals_hash_join(
        left in proptest::collection::vec((0i64..20, 0i64..1000), 0..60),
        right in proptest::collection::vec((0i64..20, 0i64..1000), 0..60),
    ) {
        let schema_l = Schema::new(vec![
            Field::new("lk", DataType::Int),
            Field::new("lv", DataType::Int),
        ]);
        let schema_r = Schema::new(vec![
            Field::new("rk", DataType::Int),
            Field::new("rv", DataType::Int),
        ]);
        let mut tl = TableBuilder::new("l", schema_l);
        for (k, v) in &left {
            tl.push_row(&[Value::Int(*k), Value::Int(*v)]);
        }
        let mut tr = TableBuilder::new("r", schema_r);
        for (k, v) in &right {
            tr.push_row(&[Value::Int(*k), Value::Int(*v)]);
        }
        let mut catalog = Catalog::new();
        catalog.register(tl.finish());
        catalog.register(tr.finish());
        let sorted = |t: &str| Box::new(PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Scan { table: t.into(), cost: OpCost::default() }),
            keys: vec![0],
            cost: OpCost::default(),
        });
        let mj = PhysicalPlan::MergeJoin {
            left: sorted("l"),
            right: sorted("r"),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        };
        let hj = PhysicalPlan::HashJoin {
            build: Box::new(PhysicalPlan::Scan { table: "r".into(), cost: OpCost::default() }),
            probe: Box::new(PhysicalPlan::Scan { table: "l".into(), cost: OpCost::default() }),
            build_key: 0,
            probe_key: 0,
            kind: cordoba::exec::JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let mj_rows = reference::canonicalize(reference::execute(&catalog, &mj));
        let hj_rows = reference::canonicalize(reference::execute(&catalog, &hj));
        prop_assert_eq!(mj_rows, hj_rows);
    }

    /// Filter through the reference executor equals a plain row filter.
    #[test]
    fn reference_filter_equals_direct_filter(
        keys in proptest::collection::vec(-50i64..50, 1..300),
        threshold in -50i64..50,
    ) {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut tb = TableBuilder::new("t", schema);
        for &k in &keys {
            tb.push_row(&[Value::Int(k)]);
        }
        let mut catalog = Catalog::new();
        catalog.register(tb.finish());
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { table: "t".into(), cost: OpCost::default() }),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, threshold),
            cost: OpCost::default(),
        };
        let got: Vec<i64> = reference::execute(&catalog, &plan)
            .into_iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        let want: Vec<i64> = keys.iter().copied().filter(|&k| k < threshold).collect();
        prop_assert_eq!(got, want);
    }
}
