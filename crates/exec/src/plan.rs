//! Executable physical plans and their output-schema derivation.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::{Agg, Predicate, ScalarExpr};
use cordoba_storage::{Catalog, DataType, Field, Schema};
use std::sync::Arc;

/// Join semantics supported by the hash join operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit probe ⨝ build rows for every key match.
    Inner,
    /// Emit each probe row that has at least one build match (EXISTS —
    /// TPC-H Q4's correlated subquery).
    Semi,
    /// Emit each probe row with no build match (NOT EXISTS).
    Anti,
    /// Emit every probe row; unmatched rows get type-default build
    /// columns (0 / 0.0 / epoch / empty). TPC-H Q13's outer join: a
    /// customer without orders joins an order-count of 0.
    LeftOuter,
}

/// A physical query plan. The engine's sharing detection goes beyond
/// structural equality (`PartialEq`): plans whose filter-peeled bases
/// hash to the same [`crate::subsume::fingerprint`] are candidates, and
/// a narrower predicate window merges into a wider one via
/// [`crate::subsume::subsume_residual`], re-applying the non-implied clauses
/// as a residual filter on the shared fragment's output.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full scan of a catalog table.
    Scan {
        /// Table name.
        table: String,
        /// Cost parameters.
        cost: OpCost,
    },
    /// Placeholder leaf whose pages arrive from an externally provided
    /// channel — used by the engine to graft a query's private
    /// above-pivot fragment onto a shared pivot's output.
    Source {
        /// Schema of the pages this source will deliver.
        schema: SchemaRef,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate over the input schema.
        predicate: Predicate,
        /// Cost parameters.
        cost: OpCost,
    },
    /// Projection / computed columns.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output columns: `(name, expression over input schema)`.
        exprs: Vec<(String, ScalarExpr)>,
        /// Cost parameters.
        cost: OpCost,
    },
    /// Hash aggregation with optional grouping (stop-&-go).
    Aggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Indices of group-by columns in the input schema.
        group_by: Vec<usize>,
        /// Aggregates: `(output name, function)`.
        aggs: Vec<(String, Agg)>,
        /// Cost parameters.
        cost: OpCost,
    },
    /// Full sort (stop-&-go).
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Key column indices, major first.
        keys: Vec<usize>,
        /// Cost parameters.
        cost: OpCost,
    },
    /// Hash join: blocking build phase, pipelined probe phase.
    HashJoin {
        /// Build-side input (fully consumed first).
        build: Box<PhysicalPlan>,
        /// Probe-side input (streamed).
        probe: Box<PhysicalPlan>,
        /// Key column index in the build schema (Int).
        build_key: usize,
        /// Key column index in the probe schema (Int).
        probe_key: usize,
        /// Join semantics.
        kind: JoinKind,
        /// Cost of consuming build tuples.
        build_cost: OpCost,
        /// Cost of probing + emitting (its `out_per_tuple` is the join's
        /// per-consumer `s`).
        probe_cost: OpCost,
    },
    /// Block nested-loop join with an arbitrary predicate over the
    /// concatenated (outer ++ inner) schema. Inner side materialized.
    NestedLoopJoin {
        /// Outer (streamed) input.
        outer: Box<PhysicalPlan>,
        /// Inner (materialized) input.
        inner: Box<PhysicalPlan>,
        /// Predicate over outer ++ inner columns.
        predicate: Predicate,
        /// Cost per (outer × inner) pair examined.
        cost: OpCost,
    },
    /// Streaming inner merge join over two inputs sorted ascending by
    /// their (Int) key columns — typically fed by [`PhysicalPlan::Sort`]
    /// children, realizing the paper's Section 5.3.2 sort/merge
    /// decomposition at the operator level.
    MergeJoin {
        /// Left input (sorted by `left_key`).
        left: Box<PhysicalPlan>,
        /// Right input (sorted by `right_key`).
        right: Box<PhysicalPlan>,
        /// Key column index in the left schema (Int).
        left_key: usize,
        /// Key column index in the right schema (Int).
        right_key: usize,
        /// Cost parameters (input per tuple; `out_per_tuple` per
        /// consumer on emitted rows).
        cost: OpCost,
    },
}

/// Shared schema reference in [`PhysicalPlan::Source`].
#[derive(Debug, Clone)]
pub struct SchemaRef(pub Arc<Schema>);

impl PartialEq for SchemaRef {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl PhysicalPlan {
    /// Derives the output schema against a catalog.
    ///
    /// # Panics
    ///
    /// Panics on unknown tables or out-of-range column indices — use
    /// [`PhysicalPlan::try_output_schema`] for a fallible derivation.
    pub fn output_schema(&self, catalog: &Catalog) -> Arc<Schema> {
        self.try_output_schema(catalog)
            // lint: allow(documented '# Panics' wrapper; fallible twin is try_output_schema)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Derives the output schema against a catalog, returning a typed
    /// error on unknown tables or out-of-range column indices.
    pub fn try_output_schema(&self, catalog: &Catalog) -> Result<Arc<Schema>, ExecError> {
        match self {
            PhysicalPlan::Scan { table, .. } => catalog
                .get(table)
                .map(|t| t.schema().clone())
                .ok_or_else(|| ExecError::plan(format!("no table '{table}' in catalog"))),
            PhysicalPlan::Source { schema } => Ok(schema.0.clone()),
            PhysicalPlan::Filter { input, .. } => input.try_output_schema(catalog),
            PhysicalPlan::Project { input, exprs, .. } => {
                let in_schema = input.try_output_schema(catalog)?;
                let fields = exprs
                    .iter()
                    .map(|(name, e)| {
                        Ok(Field::new(name.clone(), expr_type_checked(e, &in_schema)?))
                    })
                    .collect::<Result<Vec<_>, ExecError>>()?;
                Ok(Schema::new(fields))
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let in_schema = input.try_output_schema(catalog)?;
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for &i in group_by {
                    fields.push(
                        in_schema
                            .fields()
                            .get(i)
                            .cloned()
                            .ok_or_else(|| column_range_error("group-by", i, &in_schema))?,
                    );
                }
                for (name, agg) in aggs {
                    let dtype = match agg {
                        Agg::Count => DataType::Int,
                        Agg::Sum(_) | Agg::Avg(_) | Agg::Min(_) | Agg::Max(_) => DataType::Float,
                    };
                    fields.push(Field::new(name.clone(), dtype));
                }
                Ok(Schema::new(fields))
            }
            PhysicalPlan::Sort { input, .. } => input.try_output_schema(catalog),
            PhysicalPlan::HashJoin {
                build, probe, kind, ..
            } => match kind {
                JoinKind::Semi | JoinKind::Anti => probe.try_output_schema(catalog),
                JoinKind::Inner | JoinKind::LeftOuter => Ok(concat_schemas(
                    &probe.try_output_schema(catalog)?,
                    &build.try_output_schema(catalog)?,
                )),
            },
            PhysicalPlan::NestedLoopJoin { outer, inner, .. } => Ok(concat_schemas(
                &outer.try_output_schema(catalog)?,
                &inner.try_output_schema(catalog)?,
            )),
            PhysicalPlan::MergeJoin { left, right, .. } => Ok(concat_schemas(
                &left.try_output_schema(catalog)?,
                &right.try_output_schema(catalog)?,
            )),
        }
    }

    /// Immediate children (inputs) of this node.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Source { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. } => vec![input],
            PhysicalPlan::HashJoin { build, probe, .. } => vec![build, probe],
            PhysicalPlan::NestedLoopJoin { outer, inner, .. } => vec![outer, inner],
            PhysicalPlan::MergeJoin { left, right, .. } => vec![left, right],
        }
    }

    /// The same children, for in-place plan rewrites.
    pub fn children_mut(&mut self) -> Vec<&mut PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Source { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. } => vec![input],
            PhysicalPlan::HashJoin { build, probe, .. } => vec![build, probe],
            PhysicalPlan::NestedLoopJoin { outer, inner, .. } => vec![outer, inner],
            PhysicalPlan::MergeJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Short operator name for task labels and profiles.
    pub fn op_name(&self) -> String {
        match self {
            PhysicalPlan::Scan { table, .. } => format!("scan({table})"),
            PhysicalPlan::Source { .. } => "source".into(),
            PhysicalPlan::Filter { .. } => "filter".into(),
            PhysicalPlan::Project { .. } => "project".into(),
            PhysicalPlan::Aggregate { .. } => "aggregate".into(),
            PhysicalPlan::Sort { .. } => "sort".into(),
            PhysicalPlan::HashJoin { kind, .. } => format!("hashjoin({kind:?})"),
            PhysicalPlan::NestedLoopJoin { .. } => "nlj".into(),
            PhysicalPlan::MergeJoin { .. } => "mergejoin".into(),
        }
    }

    /// Number of operator nodes in the plan.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

/// Concatenates two schemas (left fields first); a name on the right
/// that is taken gets `_r` suffixes until it is not.
pub fn concat_schemas(left: &Arc<Schema>, right: &Arc<Schema>) -> Arc<Schema> {
    let mut fields: Vec<Field> = left.fields().to_vec();
    for f in right.fields() {
        let mut name = f.name.clone();
        while fields.iter().any(|g| g.name == name) {
            name.push_str("_r");
        }
        fields.push(Field::new(name, f.dtype));
    }
    Schema::new(fields)
}

/// Infers the storage type of an expression against a schema, returning
/// a typed error on out-of-range column indices.
pub(crate) fn expr_type_checked(
    expr: &ScalarExpr,
    schema: &Arc<Schema>,
) -> Result<DataType, ExecError> {
    match expr {
        ScalarExpr::Col(i) => schema
            .fields()
            .get(*i)
            .map(|f| f.dtype)
            .ok_or_else(|| column_range_error("expression", *i, schema)),
        ScalarExpr::IntLit(_) => Ok(DataType::Int),
        ScalarExpr::FloatLit(_) => Ok(DataType::Float),
        ScalarExpr::DateLit(_) => Ok(DataType::Date),
        ScalarExpr::StrLit(s) => Ok(DataType::Str(s.len())),
        ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
            match (expr_type_checked(a, schema)?, expr_type_checked(b, schema)?) {
                (DataType::Int, DataType::Int) => Ok(DataType::Int),
                _ => Ok(DataType::Float),
            }
        }
    }
}

/// Error for a column index outside a schema, labeled by use site.
pub(crate) fn column_range_error(what: &str, idx: usize, schema: &Arc<Schema>) -> ExecError {
    ExecError::plan(format!(
        "{what} column {idx} out of range for schema of {} fields",
        schema.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::{TableBuilder, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("tag", DataType::Str(4)),
        ]);
        let mut b = TableBuilder::new("t", schema);
        b.push_row(&[Value::Int(1), Value::Float(2.0), Value::Str("a".into())]);
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    fn scan() -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::default(),
        }
    }

    #[test]
    fn scan_filter_sort_preserve_schema() {
        let cat = catalog();
        let base = scan().output_schema(&cat);
        let f = PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Predicate::True,
            cost: OpCost::default(),
        };
        assert_eq!(f.output_schema(&cat), base);
        let s = PhysicalPlan::Sort {
            input: Box::new(scan()),
            keys: vec![0],
            cost: OpCost::default(),
        };
        assert_eq!(s.output_schema(&cat), base);
    }

    #[test]
    fn project_derives_types() {
        let cat = catalog();
        let p = PhysicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![
                (
                    "k2".into(),
                    ScalarExpr::Add(
                        Box::new(ScalarExpr::col(0)),
                        Box::new(ScalarExpr::IntLit(1)),
                    ),
                ),
                (
                    "vk".into(),
                    ScalarExpr::Mul(Box::new(ScalarExpr::col(1)), Box::new(ScalarExpr::col(0))),
                ),
                ("tag".into(), ScalarExpr::col(2)),
            ],
            cost: OpCost::default(),
        };
        let s = p.output_schema(&cat);
        assert_eq!(s.fields()[0].dtype, DataType::Int);
        assert_eq!(s.fields()[1].dtype, DataType::Float);
        assert_eq!(s.fields()[2].dtype, DataType::Str(4));
    }

    #[test]
    fn aggregate_schema_groups_then_aggs() {
        let cat = catalog();
        let a = PhysicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![2],
            aggs: vec![
                ("n".into(), Agg::Count),
                ("total".into(), Agg::Sum(ScalarExpr::col(1))),
            ],
            cost: OpCost::default(),
        };
        let s = a.output_schema(&cat);
        assert_eq!(s.field_names(), vec!["tag", "n", "total"]);
        assert_eq!(s.fields()[1].dtype, DataType::Int);
        assert_eq!(s.fields()[2].dtype, DataType::Float);
    }

    #[test]
    fn join_schemas_by_kind() {
        let cat = catalog();
        let join = |kind| PhysicalPlan::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(scan()),
            build_key: 0,
            probe_key: 0,
            kind,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let semi = join(JoinKind::Semi).output_schema(&cat);
        assert_eq!(semi.len(), 3);
        let inner = join(JoinKind::Inner).output_schema(&cat);
        assert_eq!(inner.len(), 6);
        // Collision suffixing.
        assert_eq!(
            inner.field_names(),
            vec!["k", "v", "tag", "k_r", "v_r", "tag_r"]
        );
        let outer = join(JoinKind::LeftOuter).output_schema(&cat);
        assert_eq!(outer.len(), 6);
    }

    #[test]
    fn a_three_way_self_join_names_every_column_apart() {
        let cat = catalog();
        let join = |build: PhysicalPlan| PhysicalPlan::HashJoin {
            build: Box::new(build),
            probe: Box::new(scan()),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let plan = join(join(scan()));
        let schema = plan.try_output_schema(&cat).expect("a schema, not a panic");
        assert_eq!(
            schema.field_names(),
            vec!["k", "v", "tag", "k_r", "v_r", "tag_r", "k_r_r", "v_r_r", "tag_r_r"]
        );
        let res = crate::QueryResources::default();
        let cfg = crate::wiring::WiringConfig::default();
        let pages = crate::wiring::run_local(&cat, &plan, &cfg, &res).expect("runs");
        assert_eq!(
            crate::wiring::page_rows(&pages),
            crate::reference::execute(&cat, &plan)
        );
    }

    #[test]
    fn plan_equality_drives_sharing_detection() {
        assert_eq!(scan(), scan());
        let other = PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::per_tuple(9.0),
        };
        assert_ne!(scan(), other);
        let f1 = PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Predicate::col_cmp(0, crate::expr::CmpOp::Lt, 5i64),
            cost: OpCost::default(),
        };
        let f2 = f1.clone();
        assert_eq!(f1, f2);
    }

    #[test]
    fn node_count_and_children() {
        let join = PhysicalPlan::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Predicate::True,
                cost: OpCost::default(),
            }),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        assert_eq!(join.node_count(), 4);
        assert_eq!(join.children().len(), 2);
        assert_eq!(join.op_name(), "hashjoin(Inner)");
    }
}
