//! The differential fuzzer: one plan generator × one configuration
//! generator, every case checked against [`reference::execute`].
//!
//! Case `n` is a pure function of `n` that reads no environment: a case
//! number names one case in every CI leg. Its substrate is
//! `SUBSTRATES[n % 4]`; the rest of its configuration and its data and
//! plans come from two generators seeded with `n`, and its group bound
//! (`max_group`, from `1..=m` for a batch of `m`) from a third, drawn
//! after both so the others' draws do not move with it.
//!
//! * Tables have an `Int` key and up to four `Int`, `Float`, `Date` or
//!   `Str` columns. They are empty, hot-key, few-key or distinct-key, on
//!   pages of 64 B to 4 KiB, sometimes stored sorted. Floats are
//!   multiples of ½, so sums are exact in any order, except in exotic
//!   columns (`x…`) of `±0.0`, NaN and `±1.5`, which are only passed
//!   through, grouped and sorted on: a NaN cannot be compared, and a
//!   signed zero makes `min` depend on input order.
//! * Plans use every operator, drawn against their input's schema: merge
//!   join and all four `JoinKind`s, nested `And`/`Or`/`Not`/`LIKE`
//!   predicates, aggregate lists that share inputs.
//! * An engine batch shares one generated pivot, the same base under
//!   nested predicate windows, so subsumption, residual filters and (on a
//!   staggered schedule) fragment-cache replay all run.
//!
//! A failing case shrinks greedily (halve a table, replace a plan node
//! by a child, step a config axis toward its default) and the panic
//! prints the case number and the minimal case.
//!
//! `tests/equivalence.rs` runs each substrate's default cases; the
//! per-feature files run slices of the case space ([`run_slice`]) and
//! fixed cases through the same [`check`].

// Each test file uses its own part of the module.
#![allow(dead_code)]

use cordoba::engine::sharing::contains_subtree;
use cordoba::engine::{run_once_on_threads, ArrivalSchedule, EngineConfig, ParallelConfig, Policy};
use cordoba::engine::{QuerySpec, Run, SharingCounters, Source, Stop};
use cordoba::exec::concat_schemas;
use cordoba::exec::expr::CmpOp::{self, Ge, Gt, Le, Lt, Ne};
use cordoba::exec::expr::ScalarExpr::{self, Add, Mul, Sub};
use cordoba::exec::expr::{Agg, Predicate};
use cordoba::exec::wiring::{self, WiringConfig};
use cordoba::exec::{reference, ExecError, JoinKind, MemoryConfig, OpCost, PhysicalPlan as Plan};
use cordoba::sim::Simulator;
use cordoba::storage::{Catalog, DataType, Date, Field, Page, PageBuilder, Schema, Table};
use cordoba::storage::{TableBuilder, Value, PAGE_SIZE};
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use Substrate::{Batch, Schedule, Seam, Threads};

type Rows = Vec<Vec<Value>>;

/// Where a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// The engine's [`Run`] over a batch submitted at t = 0.
    Batch,
    /// The engine's [`Run`] over a staggered arrival schedule.
    Schedule,
    /// `wiring::run_local`: morsel workers on OS threads.
    Threads,
    /// The engine on OS threads ([`run_once_on_threads`]): copies of
    /// one query, shared in groups of up to `max_group` or not, each
    /// group run on the thread that claims it.
    Seam,
}

/// Case `n` runs on `SUBSTRATES[n % 4]`.
pub const SUBSTRATES: [Substrate; 4] = [Batch, Schedule, Threads, Seam];

// Each axis lists its default first; shrinking steps toward it.
const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];
const BUDGETS: [Option<usize>; 6] = [None, Some(64), Some(16), Some(4), Some(2), Some(1)];
const CACHES: [usize; 2] = [0, 8];
const CONTEXTS: [usize; 4] = [1, 2, 4, 8];
/// The default group bound: larger than any case's batch, so no group is
/// ever closed by it.
const MAX_GROUP: usize = 64;

/// Arrival time of a late query: long after the early ones finished.
const LATE: u64 = 1_000_000_000;
/// The most rows a generated join may produce, or pairs a nested-loop
/// join may examine.
const MAX_ROWS: usize = 5_000;

/// One point of the configuration product.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Where the case runs.
    pub substrate: Substrate,
    /// Morsel workers (on the seam: threads that claim its groups).
    pub workers: usize,
    /// Per-query budget in pages, spilling to the case's own directory.
    pub budget_pages: Option<usize>,
    /// `AlwaysShare` rather than `NeverShare`.
    pub share: bool,
    /// Fragment-cache capacity.
    pub cache: usize,
    /// Simulated contexts (on the seam: copies of the query).
    pub contexts: usize,
    /// The most members a sharing group takes: drawn from `1..=m` for a
    /// batch of `m` queries ([`Case::generate`]), so a shared batch
    /// splits into groups the policies alone never form.
    pub max_group: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            substrate: Batch,
            workers: WORKERS[0],
            budget_pages: BUDGETS[0],
            share: false,
            cache: CACHES[0],
            contexts: CONTEXTS[0],
            max_group: MAX_GROUP,
        }
    }
}

impl Config {
    /// Case `n`'s configuration, drawn apart from its data and plans, so a
    /// slice can pass over case numbers by their configuration alone.
    pub fn of(n: u64) -> Self {
        let substrate = SUBSTRATES[(n % 4) as usize];
        Config::draw(&mut Rng(!n), substrate)
    }

    /// Draws the axes `substrate` reads; the others keep their default.
    fn draw(rng: &mut Rng, substrate: Substrate) -> Self {
        let mut c = Config::default();
        (c.substrate, c.workers) = (substrate, rng.pick(&WORKERS));
        if substrate != Seam {
            c.budget_pages = rng.pick(&BUDGETS);
        }
        if substrate != Threads {
            (c.share, c.contexts) = (rng.chance(60), rng.pick(&CONTEXTS));
        }
        if matches!(substrate, Batch | Schedule) {
            c.cache = rng.pick(&CACHES);
        }
        c
    }

    /// This config with one axis stepped toward its default.
    fn simpler(&self) -> Vec<Config> {
        let mut out = Vec::new();
        let mut step = |edit: &dyn Fn(&mut Config) -> bool| {
            let mut c = self.clone();
            if edit(&mut c) {
                out.push(c);
            }
        };
        step(&|c| down(&WORKERS, &mut c.workers));
        step(&|c| down(&BUDGETS, &mut c.budget_pages));
        step(&|c| std::mem::take(&mut c.share));
        step(&|c| down(&CACHES, &mut c.cache));
        step(&|c| down(&CONTEXTS, &mut c.contexts));
        step(&|c| std::mem::replace(&mut c.max_group, MAX_GROUP) != MAX_GROUP);
        out
    }
}

/// Steps `v` to the value before it on `axis`; `false` at the default.
fn down<T: Copy + PartialEq>(axis: &[T], v: &mut T) -> bool {
    let at = axis.iter().position(|a| a == v).unwrap_or(0);
    *v = axis[at.saturating_sub(1)];
    at > 0
}

/// One case: data, queries with their arrival times, and where and how
/// they run.
pub struct Case {
    /// The tables the plans scan.
    pub catalog: Catalog,
    /// Queries by offered position (arrival times matter on a schedule).
    pub queries: ArrivalSchedule,
    /// The configuration.
    pub config: Config,
    /// Every plan the generator drew or [`Case::output`] was asked about,
    /// each with the reference's output of it once worked out. It holds
    /// while `catalog` does; the shrinker's edits start without it.
    drawn: RefCell<Vec<Node>>,
}

impl Case {
    /// A fixed case.
    pub fn new(catalog: Catalog, queries: ArrivalSchedule, config: Config) -> Case {
        let drawn = RefCell::default();
        Case {
            catalog,
            queries,
            config,
            drawn,
        }
    }

    /// Case `n`.
    pub fn generate(n: u64) -> Case {
        let mut g = Gen::new(n);
        for t in 0..2 + g.rng.below(2) {
            g.table(t);
        }
        let (members, depth) = (1 + g.rng.below(4), 1 + g.rng.below(3) as u32);
        let config = Config::of(n);
        let queries = match config.substrate {
            Threads => {
                let plan = g.plan(depth, None).plan().clone();
                vec![(0, QuerySpec::unshared("q0", plan))]
            }
            Seam => g.batch(1, false),
            s => g.batch(members, s == Schedule),
        };
        let mut config = config;
        if config.substrate != Threads {
            // After every other draw, from a stream of its own, so the
            // draws above do not move with it.
            let m = if config.substrate == Seam {
                config.contexts
            } else {
                queries.len()
            };
            config.max_group = 1 + Rng(n.rotate_left(32) ^ 0x6d61_785f_6772_6f75).below(m);
        }
        let mut case = Case::new(g.catalog, queries, config);
        case.drawn = RefCell::new(g.drawn);
        case
    }

    /// The reference's output of `plan`, worked out once per case.
    fn output(&self, plan: &Plan) -> Result<Arc<Table>, String> {
        let known = self
            .drawn
            .borrow()
            .iter()
            .find(|d| d.plan() == plan)
            .cloned();
        let run = || match &known {
            Some(node) => node.output().clone(),
            None => reference::execute_table(&self.catalog, plan),
        };
        let table = catch_unwind(AssertUnwindSafe(run));
        let table = table.map_err(|p| format!("reference {}", panic_text(p)))?;
        if known.is_none() {
            let node = Node::known(plan.clone(), table.clone());
            self.drawn.borrow_mut().push(node);
        }
        Ok(table)
    }

    /// Every plan node of every query.
    pub fn nodes(&self) -> Vec<&Plan> {
        self.queries
            .iter()
            .flat_map(|(_, q)| nodes(&q.plan))
            .collect()
    }

    /// Whether some node is `op`, named plainly (`hashjoin`) or with its
    /// label (`hashjoin(Semi)`).
    pub fn has(&self, op: &str) -> bool {
        self.nodes()
            .into_iter()
            .any(|p| labels(p).iter().any(|l| l == op))
    }

    /// Plan nodes and table rows: what shrinking minimises.
    fn size(&self) -> (usize, usize) {
        let nodes = self.queries.iter().map(|(_, q)| q.plan.node_count());
        let rows = self.catalog.iter().map(|(_, t)| t.row_count());
        (nodes.sum(), rows.sum())
    }
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:?}", self.config)?;
        for (name, t) in self.catalog.iter() {
            let pages: Vec<usize> = t.pages().iter().map(|p| p.rows()).collect();
            let fields = t.schema().fields();
            writeln!(f, "table {name} {fields:?}, rows per page {pages:?}")?;
            if t.row_count() <= 32 {
                writeln!(f, "  {:?}", t.scan_values().collect::<Rows>())?;
            }
        }
        for (at, q) in &self.queries {
            writeln!(f, "{} at {at}: {:?}\n  pivot {:?}", q.name, q.plan, q.pivot)?;
        }
        Ok(())
    }
}

/// SplitMix64: a small, seedable, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    /// One of `items`, or 0 when there is none.
    fn index(&mut self, items: &[usize]) -> usize {
        items.get(self.below(items.len())).copied().unwrap_or(0)
    }
}

/// A generated sub-plan. The reference's output of it is worked out from
/// its children's, once, when something first asks (a join's bound, a
/// merge input's order, a query's answer): a candidate a slice turns
/// away costs its tables and its joins' inputs, no more.
#[derive(Clone)]
struct Node(Rc<Drawn>);

struct Drawn {
    plan: Plan,
    schema: Arc<Schema>,
    kids: Vec<Node>,
    output: OnceCell<Arc<Table>>,
}

impl Node {
    fn new(plan: Plan, schema: Arc<Schema>, kids: Vec<Node>) -> Node {
        let output = OnceCell::new();
        Node(Rc::new(Drawn {
            plan,
            schema,
            kids,
            output,
        }))
    }

    /// A node whose output is known: a stored table, or the reference's.
    fn known(plan: Plan, table: Arc<Table>) -> Node {
        let node = Node::new(plan, table.schema().clone(), Vec::new());
        let _ = node.0.output.set(table);
        node
    }

    fn plan(&self) -> &Plan {
        &self.0.plan
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.0.schema
    }

    fn output(&self) -> &Arc<Table> {
        self.0.output.get_or_init(|| {
            let kids: Vec<&Arc<Table>> = self.0.kids.iter().map(Node::output).collect();
            evaluate(&self.0.plan, &kids)
        })
    }
}

/// Whether `plan` over its children's outputs `kids` stays within
/// [`MAX_ROWS`]; only a join can outgrow it.
fn fits<'a>(plan: &Plan, kid: impl Fn(usize) -> &'a Arc<Table>) -> bool {
    let rows = match *plan {
        // Semi and anti joins keep at most the probe's rows.
        Plan::HashJoin {
            kind: JoinKind::Semi | JoinKind::Anti,
            ..
        } => 0,
        Plan::HashJoin {
            build_key: b,
            probe_key: p,
            ..
        } => join_rows(kid(0), b, kid(1), p) + kid(1).row_count(),
        Plan::MergeJoin {
            left_key: l,
            right_key: r,
            ..
        } => join_rows(kid(0), l, kid(1), r),
        Plan::NestedLoopJoin { .. } => kid(0).row_count() * kid(1).row_count(),
        _ => 0,
    };
    rows <= MAX_ROWS
}

/// The reference's output of the operator at the root of `plan` over its
/// children's outputs `kids`, so each node runs once however deep it
/// sits.
fn evaluate(plan: &Plan, kids: &[&Arc<Table>]) -> Arc<Table> {
    let (mut local, mut node) = (Catalog::new(), plan.clone());
    for (k, (child, t)) in node.children_mut().into_iter().zip(kids).enumerate() {
        let (table, cost) = (format!("#{k}"), OpCost::default());
        let (schema, pages) = (t.schema().clone(), t.pages().to_vec());
        local.register(Table::from_pages(&table, schema, pages));
        *child = Plan::Scan { table, cost };
    }
    reference::execute_table(&local, &node)
}

/// The reference's output of `plan`, node by node; `None` when a join in
/// it would exceed [`MAX_ROWS`].
fn materialize(plan: &Plan, cat: &Catalog) -> Option<Arc<Table>> {
    if let Plan::Scan { table, .. } = plan {
        return cat.get(table).cloned();
    }
    let kids = plan.children().into_iter().map(|c| materialize(c, cat));
    let kids: Vec<Arc<Table>> = kids.collect::<Option<_>>()?;
    let kids: Vec<&Arc<Table>> = kids.iter().collect();
    fits(plan, |k| kids[k]).then(|| evaluate(plan, &kids))
}

fn int_column(t: &Table, col: usize) -> Vec<i64> {
    let rows = t.pages().iter().flat_map(|p| p.tuples());
    rows.map(|r| r.get_int(col)).collect()
}

/// How many rows of `t` hold each key of its `Int` column `col`.
fn key_counts(t: &Table, col: usize) -> HashMap<i64, usize> {
    let mut count = HashMap::new();
    for k in int_column(t, col) {
        *count.entry(k).or_insert(0) += 1;
    }
    count
}

/// Rows of the inner equi-join of `a` and `b` on `ka` = `kb`.
fn join_rows(a: &Table, ka: usize, b: &Table, kb: usize) -> usize {
    let count = key_counts(a, ka);
    int_column(b, kb).iter().filter_map(|k| count.get(k)).sum()
}

/// Every node of `plan`.
fn nodes(plan: &Plan) -> Vec<&Plan> {
    let (mut plans, mut nodes) = (vec![plan], Vec::new());
    while let Some(plan) = plans.pop() {
        plans.extend(plan.children());
        nodes.push(plan);
    }
    nodes
}

fn has_hash_join(plan: &Plan) -> bool {
    nodes(plan)
        .into_iter()
        .any(|p| matches!(p, Plan::HashJoin { .. }))
}

/// An exotic column: a `Float` that may hold NaN or `-0.0`.
fn exotic(f: &Field) -> bool {
    f.dtype == DataType::Float && f.name.starts_with('x')
}

fn numeric(f: &Field) -> bool {
    matches!(f.dtype, DataType::Int | DataType::Float) && !exotic(f)
}

/// Columns of `schema` that `keep` admits.
fn cols(schema: &Schema, keep: impl Fn(&Field) -> bool) -> Vec<usize> {
    let fields = schema.fields().iter().enumerate();
    fields.filter_map(|(i, f)| keep(f).then_some(i)).collect()
}

/// Whether `concat_schemas` can name every column of `l ++ r`: it
/// suffixes a clashing name with `_r` once, and a second clash is a
/// duplicate.
fn concat_ok(l: &Schema, r: &Schema) -> bool {
    let mut names: Vec<String> = l.fields().iter().map(|f| f.name.clone()).collect();
    r.fields().iter().all(|f| {
        let clash = names.contains(&f.name);
        let name = format!("{}{}", f.name, if clash { "_r" } else { "" });
        let unique = !names.contains(&name);
        names.push(name);
        unique
    })
}

const PAGES: [usize; 5] = [64, 128, 256, 1024, PAGE_SIZE];
const EXOTIC: [f64; 5] = [0.0, -0.0, f64::NAN, 1.5, -1.5];
const STRS: [&str; 7] = ["a", "ab", "b", "ba", "aab", "b b", "abab"];
/// Stored strings, and what `LIKE` patterns are made of (joined by `%`).
const FRAGMENTS: [&str; 8] = ["", "", "a", "b", " ", "ab", "ba", "a b"];

/// The generator: tables into `catalog`, then well-typed plans over them.
struct Gen {
    rng: Rng,
    catalog: Catalog,
    /// Aggregate outputs drawn so far: each gets a name of its own.
    names: usize,
    /// Every operator drawn so far.
    drawn: Vec<Node>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: Rng(seed),
            catalog: Catalog::new(),
            names: 0,
            drawn: Vec::new(),
        }
    }

    /// Table `t{t}`; its columns are named after it, so joins of
    /// different tables need no `_r` suffix.
    fn table(&mut self, t: usize) {
        let r = &mut self.rng;
        let mut fields = vec![Field::new(format!("k{t}"), DataType::Int)];
        for j in 1..=r.below(5) {
            let width = 1 + r.below(4);
            let dtype = [DataType::Int, DataType::Date, DataType::Str(width)];
            let dtype = dtype.get(r.below(5)).copied().unwrap_or(DataType::Float);
            let x = if r.chance(40) { 'x' } else { 'c' };
            fields.push(Field::new(format!("{x}{t}{j}"), dtype));
        }
        let n = match r.below(10) {
            0 => 0,
            1..=4 => r.below(40),
            5..=7 => 40 + r.below(360),
            _ => 400 + r.below(2600),
        };
        let keys = r.below(4);
        let mut rows: Rows = Vec::with_capacity(n);
        for i in 0..n {
            // 7919 is a prime above any `n`: distinct keys, scattered.
            let key = [7, r.below(8), r.below(64), i * 7919 % n][keys] as i64;
            let mut row = vec![Value::Int(key)];
            for f in &fields[1..] {
                row.push(match f.dtype {
                    DataType::Int => Value::Int(r.range(-20, 21)),
                    DataType::Float if exotic(f) => Value::Float(r.pick(&EXOTIC)),
                    DataType::Float => Value::Float(r.range(-40, 41) as f64 * 0.5),
                    DataType::Date => Value::Date(Date(r.range(0, 31) as i32)),
                    DataType::Str(w) => Value::Str(r.pick(&FRAGMENTS).chars().take(w).collect()),
                });
            }
            rows.push(row);
        }
        if r.chance(30) {
            rows.sort_by_key(|row| row[0].as_int());
        }
        let schema = Schema::new(fields);
        let page = r.pick(&PAGES).max(schema.row_width());
        let mut tb = TableBuilder::with_page_size(format!("t{t}"), schema, page);
        rows.iter().for_each(|row| tb.push_row(row));
        self.catalog.register(tb.finish());
    }

    fn cost(&mut self) -> OpCost {
        let per_tuple = self.rng.pick(&[0.5, 1.0, 2.0]);
        let cost = OpCost::new(per_tuple, self.rng.pick(&[0.0, 0.25]));
        cost.with_per_page(self.rng.pick(&[0.0, 3.0]))
    }

    /// `plan` over `kids`, unless it is a join too large to draw.
    fn node(&mut self, plan: Plan, kids: &[&Node]) -> Option<Node> {
        if !fits(&plan, |k| kids[k].output()) {
            return None;
        }
        let schema = plan.output_schema(&self.catalog);
        let node = Node::new(plan, schema, kids.iter().map(|&k| k.clone()).collect());
        self.drawn.push(node.clone());
        Some(node)
    }

    /// A plan `depth` operators deep at most; with `pivot`, the pivot
    /// is one of its leaves.
    fn plan(&mut self, depth: u32, pivot: Option<&Node>) -> Node {
        if depth == 0 || self.rng.chance(20) {
            if let Some(p) = pivot {
                return p.clone();
            }
            let names: Vec<String> = self.catalog.iter().map(|(n, _)| n.into()).collect();
            let table = self.rng.pick(&names);
            let (t, cost) = (self.catalog.expect(&table).clone(), self.cost());
            return Node::known(Plan::Scan { table, cost }, t);
        }
        if self.rng.chance(40) {
            let input = self.plan(depth - 1, pivot);
            return self.unary(input);
        }
        let left = self.rng.chance(50);
        let a = self.plan(depth - 1, pivot.filter(|_| left));
        let b = self.plan(depth - 1, pivot.filter(|_| !left));
        // A join of the two, or — when none fits — an operator over the
        // side holding the pivot.
        let joined = (0..3).find_map(|_| self.join(&a, &b));
        joined.unwrap_or_else(|| self.unary(if left { a } else { b }))
    }

    fn unary(&mut self, input: Node) -> Node {
        let (schema, cost) = (input.schema().clone(), self.cost());
        let (boxed, key) = (Box::new(input.plan().clone()), self.rng.below(schema.len()));
        let plan = match self.rng.below(4) {
            0 => Plan::Filter {
                input: boxed,
                predicate: self.pred(&schema, 2),
                cost,
            },
            1 => Plan::Project {
                input: boxed,
                exprs: self.exprs(&schema),
                cost,
            },
            2 => self.aggregate(boxed, &schema),
            _ => return self.sort(&input, key),
        };
        // No unary operator outgrows its input.
        self.node(plan, &[&input]).expect("within bounds")
    }

    fn join(&mut self, a: &Node, b: &Node) -> Option<Node> {
        let int = |n: &Node| cols(n.schema(), |f| f.dtype == DataType::Int);
        let (ia, ib) = (int(a), int(b));
        let keyed = !ia.is_empty() && !ib.is_empty();
        let (ka, kb) = (self.rng.index(&ia), self.rng.index(&ib));
        // Semi and anti joins keep the probe's schema; the others need
        // `concat_schemas` to name every column.
        let (sa, sb) = (a.schema(), b.schema());
        let pairs = concat_ok(sa, sb) && concat_ok(sb, sa);
        let cost = self.cost();
        match self.rng.below(5) {
            0 | 1 if keyed => {
                use JoinKind::*;
                let kinds = [Semi, Anti, Inner, LeftOuter];
                let kind = kinds[self.rng.below(if pairs { 4 } else { 2 })];
                let (sides, s) = ([(a, ka), (b, kb)], self.rng.below(2));
                let ((build, bk), (probe, pk)) = (sides[s], sides[1 - s]);
                let plan = Plan::HashJoin {
                    build: Box::new(build.plan().clone()),
                    probe: Box::new(probe.plan().clone()),
                    build_key: bk,
                    probe_key: pk,
                    kind,
                    build_cost: cost,
                    probe_cost: self.cost(),
                };
                self.node(plan, &[build, probe])
            }
            2 if pairs => {
                let (l, r) = (ScalarExpr::col(ka), ScalarExpr::col(sa.len() + kb));
                let predicate = match keyed && self.rng.chance(50) {
                    true => Predicate::cmp(l, CmpOp::Eq, r),
                    false => self.pred(&concat_schemas(sa, sb), 2),
                };
                let plan = Plan::NestedLoopJoin {
                    outer: Box::new(a.plan().clone()),
                    inner: Box::new(b.plan().clone()),
                    predicate,
                    cost,
                };
                self.node(plan, &[a, b])
            }
            _ if keyed && pairs => {
                let (l, r) = (self.sorted(a, ka), self.sorted(b, kb));
                let plan = Plan::MergeJoin {
                    left: Box::new(l.plan().clone()),
                    right: Box::new(r.plan().clone()),
                    left_key: ka,
                    right_key: kb,
                    cost,
                };
                self.node(plan, &[&l, &r])
            }
            _ => None,
        }
    }

    /// `input` in ascending order of its `Int` column `key`: as it is
    /// when it already is (a table stored sorted, say) and no hash join
    /// in it may reorder its rows by spilling, else sorted.
    fn sorted(&mut self, input: &Node, key: usize) -> Node {
        let kept = !has_hash_join(input.plan()) && int_column(input.output(), key).is_sorted();
        match kept && self.rng.chance(70) {
            true => input.clone(),
            false => self.sort(input, key),
        }
    }

    /// `input` under a sort on `key`, sometimes with a second column.
    fn sort(&mut self, node: &Node, key: usize) -> Node {
        let mut keys = vec![key];
        let second = self.rng.below(node.schema().len());
        if second != key && self.rng.chance(40) {
            keys.push(second);
        }
        let (input, cost) = (Box::new(node.plan().clone()), self.cost());
        let sort = Plan::Sort { input, keys, cost };
        self.node(sort, &[node]).expect("a sort keeps its rows")
    }

    fn aggregate(&mut self, input: Box<Plan>, schema: &Schema) -> Plan {
        let (a, b) = (self.rng.below(schema.len()), self.rng.below(schema.len()));
        let keys = self.rng.below(if a == b { 2 } else { 3 });
        let group_by = [vec![], vec![a], vec![a, b]][keys].clone();
        // A pool of inputs, each with an operand and its operand-swapped
        // form, so the aggregate list shares inputs and sub-expressions.
        let mut pool = Vec::new();
        for _ in 0..1 + self.rng.below(3) {
            let e = self.num(schema, 2);
            let mut swapped = e.clone();
            if let Add(x, y) | Sub(x, y) | Mul(x, y) = &mut swapped {
                std::mem::swap(x, y);
                pool.push((**x).clone());
            }
            pool.extend([swapped, e]);
        }
        let mut aggs = Vec::new();
        for _ in 0..1 + self.rng.below(6) {
            let funcs: [fn(ScalarExpr) -> Agg; 4] = [Agg::Sum, Agg::Avg, Agg::Min, Agg::Max];
            let (e, f) = (self.rng.pick(&pool), funcs.get(self.rng.below(5)));
            self.names += 1;
            aggs.push((format!("a{}", self.names), f.map_or(Agg::Count, |f| f(e))));
        }
        let cost = self.cost();
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            cost,
        }
    }

    fn exprs(&mut self, schema: &Schema) -> Vec<(String, ScalarExpr)> {
        let mut exprs = Vec::new();
        for j in 0..1 + self.rng.below(4) {
            let c = self.rng.below(schema.len());
            let expr = match self.rng.below(10) {
                0..=3 => ScalarExpr::col(c),
                4..=7 => self.num(schema, 2),
                8 => ScalarExpr::StrLit(self.rng.pick(&STRS).into()),
                _ => ScalarExpr::DateLit(Date(self.rng.range(0, 31) as i32)),
            };
            let x = matches!(expr, ScalarExpr::Col(_)) && exotic(&schema.fields()[c]);
            exprs.push((format!("{}{j}", if x { 'x' } else { 'c' }), expr));
        }
        exprs
    }

    /// A numeric expression over the non-exotic numeric columns.
    fn num(&mut self, schema: &Schema, depth: u32) -> ScalarExpr {
        let nums = cols(schema, numeric);
        let sub = |g: &mut Self| Box::new(g.num(schema, depth - 1));
        match self.rng.below(if depth > 0 { 7 } else { 4 }) {
            0 | 1 if !nums.is_empty() => ScalarExpr::col(self.rng.pick(&nums)),
            2 => ScalarExpr::IntLit(self.rng.pick(&[-3, -1, 0, 1, 2, 7, 1 << 20])),
            0..=3 => ScalarExpr::FloatLit(self.rng.range(-8, 9) as f64 * 0.5),
            4 => Add(sub(self), sub(self)),
            5 => Sub(sub(self), sub(self)),
            _ => Mul(sub(self), sub(self)),
        }
    }

    /// `col op lit` or `lit op col`, the literal at `at` (a string:
    /// any of [`STRS`]).
    fn bound(&mut self, schema: &Schema, col: usize, op: CmpOp, at: i64) -> Predicate {
        let lit = match schema.fields()[col].dtype {
            DataType::Int => ScalarExpr::IntLit(at),
            DataType::Float => ScalarExpr::FloatLit(at as f64 * 0.5),
            DataType::Date => ScalarExpr::DateLit(Date(at as i32)),
            DataType::Str(_) => ScalarExpr::StrLit(self.rng.pick(&STRS).into()),
        };
        // `a op b` is `b mirror a`.
        let mirror = match op {
            Lt => Gt,
            Le => Ge,
            Gt => Lt,
            Ge => Le,
            eq_or_ne => eq_or_ne,
        };
        match self.rng.chance(50) {
            true => Predicate::cmp(ScalarExpr::col(col), op, lit),
            false => Predicate::cmp(lit, mirror, ScalarExpr::col(col)),
        }
    }

    fn pred(&mut self, schema: &Schema, depth: u32) -> Predicate {
        let comparable = cols(schema, |f| !exotic(f));
        let strs = cols(schema, |f| matches!(f.dtype, DataType::Str(_)));
        let op = self.rng.pick(&[CmpOp::Eq, Ne, Lt, Le, Gt, Ge]);
        let n = 1 + self.rng.below(3);
        let sub = |g: &mut Self| (0..n).map(|_| g.pred(schema, depth - 1)).collect();
        match self.rng.below(if depth > 0 { 11 } else { 8 }) {
            1..=3 if !comparable.is_empty() => {
                let (c, at) = (self.rng.pick(&comparable), self.rng.range(-24, 24));
                self.bound(schema, c, op, at)
            }
            4 if !comparable.is_empty() => {
                let c = self.rng.pick(&comparable);
                // Numbers compare with numbers, dates with dates, strings
                // with strings.
                let class = |f: &Field| (numeric(f), f.dtype == DataType::Date);
                let want = class(&schema.fields()[c]);
                let same = cols(schema, |f| !exotic(f) && class(f) == want);
                let d = self.rng.pick(&same);
                Predicate::cmp(ScalarExpr::col(c), op, ScalarExpr::col(d))
            }
            5 => Predicate::cmp(self.num(schema, 1), op, self.num(schema, 1)),
            6 | 7 if !strs.is_empty() => {
                let (col, n) = (self.rng.pick(&strs), 1 + self.rng.below(4));
                let fragments: Vec<&str> = (0..n).map(|_| self.rng.pick(&FRAGMENTS)).collect();
                let pattern = fragments.join("%");
                Predicate::Like { col, pattern }
            }
            8 => Predicate::And(sub(self)),
            9 => Predicate::Or(sub(self)),
            10 => Predicate::Not(Box::new(self.pred(schema, depth - 1))),
            _ => Predicate::True,
        }
    }

    /// `members` queries sharing one generated pivot: a base plan under
    /// nested windows `lo ≤/< col ≤/< hi` on one of its columns (one- or
    /// two-sided, sometimes narrowed by a clause outside the lattice; or
    /// no window: exact sharing), each member's own operators above it.
    /// A schedule staggers them, some long after the first finished.
    fn batch(&mut self, members: usize, staggered: bool) -> ArrivalSchedule {
        let depth = self.rng.below(2) as u32;
        let base = self.plan(depth, None);
        let schema = base.schema().clone();
        let ordered = cols(&schema, |f| numeric(f) || f.dtype == DataType::Date);
        let window = !ordered.is_empty() && self.rng.chance(85);
        let col = self.rng.index(&ordered);
        let (lo, hi) = (self.rng.range(-12, 8), self.rng.range(8, 30));
        // Every window has the lower bound, the upper or both.
        let sides = self.rng.pick(&[0..1, 1..2, 0..2]);
        let mut queries = Vec::new();
        for i in 0..members {
            // The first member's window is the widest; the rest nest in it.
            let inward = |g: &mut Self| g.rng.below(3) as i64 * i64::from(i > 0);
            let (a, b) = (lo + inward(self), hi - inward(self));
            let (lower, upper) = (self.rng.pick(&[Ge, Gt]), self.rng.pick(&[Le, Lt]));
            let lower = self.bound(&schema, col, lower, a);
            let bounds = [lower, self.bound(&schema, col, upper, b)];
            let mut clauses = bounds[sides.clone()].to_vec();
            if self.rng.chance(20) {
                clauses.push(self.pred(&schema, 1));
            }
            let (input, predicate) = (Box::new(base.plan().clone()), Predicate::And(clauses));
            let filter = Plan::Filter {
                input,
                predicate,
                cost: self.cost(),
            };
            let pivot = match window {
                true => self.node(filter, &[&base]).expect("filters keep rows"),
                false => base.clone(),
            };
            let depth = self.rng.below(3) as u32;
            let plan = self.plan(depth, Some(&pivot));
            let plan = plan.plan().clone();
            let at = self.rng.pick(&[0, 1_000, LATE, LATE]) * u64::from(staggered && i > 0);
            let pivot = pivot.plan().clone();
            queries.push((at, QuerySpec::shared_at(format!("q{i}"), plan, pivot)));
        }
        if members > 1 && self.rng.chance(25) {
            let plan = self.plan(2, None);
            queries.push((0, QuerySpec::unshared("u", plan.plan().clone())));
        }
        queries.sort_by_key(|(at, _)| *at);
        queries
    }
}

/// A table and, over its schema, a predicate and a numeric expression
/// drawn as the plan generator draws a filter's and a projection's, all
/// from seed `n`.
pub fn expressions(n: u64) -> (Arc<Table>, Predicate, ScalarExpr) {
    let mut g = Gen::new(n);
    g.table(0);
    let table = g.catalog.expect("t0").clone();
    let (pred, expr) = (g.pred(table.schema(), 3), g.num(table.schema(), 3));
    (table, pred, expr)
}

/// A small TPC-H instance for the fixed cases.
pub fn tpch() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        cordoba::storage::tpch::generate(&cordoba::storage::tpch::TpchConfig {
            scale_factor: 0.002,
            seed: 11,
            ..Default::default()
        })
    })
}

/// A value under the one row encoding: floats by their bits, everything
/// else by value. `-0.0` and `0.0` differ; two NaNs with the same bits
/// are equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Cell {
    Int(i64),
    Float(u64),
    Date(i32),
    Str(String),
}

/// The one comparator: `got` equals `want` row for row, or as a multiset
/// when `ordered` is false.
pub fn same_rows(got: &[Vec<Value>], want: &[Vec<Value>], ordered: bool) -> Result<(), String> {
    let cell = |v: &Value| match v {
        Value::Int(i) => Cell::Int(*i),
        Value::Float(f) => Cell::Float(f.to_bits()),
        Value::Date(d) => Cell::Date(d.0),
        Value::Str(s) => Cell::Str(s.clone()),
    };
    let encode = |rows: &[Vec<Value>]| {
        let mut rows: Vec<Vec<Cell>> = rows.iter().map(|r| r.iter().map(cell).collect()).collect();
        if !ordered {
            rows.sort();
        }
        rows
    };
    let (got, want) = (encode(got), encode(want));
    let at = got.iter().zip(&want).position(|(g, w)| g != w);
    let at = match at {
        None if got.len() == want.len() => return Ok(()),
        at => at.unwrap_or(got.len().min(want.len())),
    };
    let (n, m, g, w) = (got.len(), want.len(), got.get(at), want.get(at));
    let how = ["as multisets", "row for row"][usize::from(ordered)];
    let msg = format!("{n} rows, want {m} ({how}); row {at}: {g:?} vs {w:?}");
    Err(msg)
}

/// Whether `case` may end in a typed `BudgetExhausted` rather than spill
/// its way through: a query holds two or more buffering operators (sorts
/// and hash joins) under a budget of four pages or fewer, whose frames
/// and runs leave too little for a spilled partition; or an inner or
/// left-outer hash join builds one key in over a quarter of the budget:
/// no repartitioning level splits a key, and a partition at the last
/// level holds a few of them beside its streams' frames.
pub fn may_exhaust(case: &Case) -> bool {
    let Some(pages) = case.config.budget_pages else {
        return false;
    };
    let hot = |plan: &&Plan| {
        let Plan::HashJoin {
            build,
            build_key,
            kind: JoinKind::Inner | JoinKind::LeftOuter,
            ..
        } = plan
        else {
            return false;
        };
        let Ok(table) = case.output(build) else {
            return false;
        };
        let most = key_counts(&table, *build_key)
            .into_values()
            .max()
            .unwrap_or(0);
        4 * most * table.schema().row_width() > pages * PAGE_SIZE
    };
    case.queries.iter().any(|(_, q)| {
        let nodes = nodes(&q.plan);
        let buffering = nodes
            .iter()
            .filter(|p| matches!(p, Plan::Sort { .. } | Plan::HashJoin { .. }));
        (pages <= 4 && buffering.count() >= 2) || nodes.iter().any(hot)
    })
}

/// What a passing case observed beyond its rows.
#[derive(Debug, Default)]
pub struct Observed {
    /// Whether the case opened a spill file and every query completed.
    pub spilled: bool,
    /// Sizes of the sharing groups.
    pub groups: Vec<usize>,
    /// The engine's subsumption and fragment-cache counters.
    pub sharing: SharingCounters,
    /// Response times in completion order (engine substrates).
    pub response_times: Vec<u64>,
}

/// What became of query `.0`.
type Outcome = (usize, Result<Rows, ExecError>);

static SPILL_DIRS: AtomicUsize = AtomicUsize::new(0);

fn panic_text(panic: Box<dyn std::any::Any + Send>) -> String {
    let text = panic.downcast_ref::<String>().cloned();
    let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
    format!("panicked: {}", text.unwrap_or_default())
}

/// Runs `case` and checks it: every query's rows equal the reference's,
/// nothing failed (a typed `BudgetExhausted` aside, where
/// [`may_exhaust`] allows it), every granted byte came back where the
/// substrate exposes its broker, and no spill file survived. Rows are
/// compared row for row, as multisets only where a hash join spilled
/// (its partitions come back partition by partition).
pub fn check(case: &Case) -> Result<Observed, String> {
    let n = SPILL_DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cordoba-fuzz-{}-{n}", std::process::id()));
    let query_budget = case.config.budget_pages.map(|p| p * PAGE_SIZE);
    let mut memory = MemoryConfig::default();
    (memory.query_budget, memory.spill_dir) = (query_budget, Some(dir.clone()));
    let ran = catch_unwind(AssertUnwindSafe(|| execute(case, memory)));
    let ran = ran.unwrap_or_else(|p| Err(panic_text(p)));
    // The first spill file a run opens creates the directory.
    let spilled = dir.exists();
    let left = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    let _ = std::fs::remove_dir_all(&dir);
    if left > 0 {
        return Err(format!("{left} spill files left behind"));
    }
    let (outcomes, mut seen) = ran?;
    let mut completed = true;
    for (i, outcome) in outcomes {
        let q = &case.queries[i].1;
        match outcome {
            Ok(got) => {
                let ordered = !(spilled && has_hash_join(&q.plan));
                let want: Rows = case.output(&q.plan)?.scan_values().collect();
                same_rows(&got, &want, ordered).map_err(|e| format!("{}: {e}", q.name))?;
            }
            Err(ExecError::BudgetExhausted { .. }) if may_exhaust(case) => completed = false,
            Err(e) => return Err(format!("{} failed: {e}", q.name)),
        }
    }
    seen.spilled = spilled && completed;
    Ok(seen)
}

/// [`check`]s a fixed case, panicking with it on failure. A fixed case
/// must complete: it may not be one a budget may exhaust.
pub fn checked(case: &Case) -> Observed {
    assert!(!may_exhaust(case), "a fixed case must spill, not fail");
    check(case).unwrap_or_else(|why| panic!("{why}\n{case:?}"))
}

/// Pages a simulated step and a claimed morsel move on `substrate`: the
/// default on the engine's substrates, so their steps move a morsel; one
/// on threads, so a small table still splits into many morsels for the
/// workers to race on. (The seam sizes its own.)
fn morsel_pages(substrate: Substrate) -> usize {
    match substrate {
        Batch | Schedule => ParallelConfig::default().morsel_pages,
        Threads | Seam => 1,
    }
}

/// Runs `case` on its substrate.
fn execute(case: &Case, memory: MemoryConfig) -> Result<(Vec<Outcome>, Observed), String> {
    let (c, cat, q) = (&case.config, &case.catalog, &case.queries[0].1);
    let parallel = ParallelConfig {
        workers: c.workers,
        morsel_pages: morsel_pages(c.substrate),
    };
    let mut seen = Observed::default();
    let outcomes: Vec<Outcome> = match c.substrate {
        Batch | Schedule | Seam => {
            let policy = [Policy::NeverShare, Policy::AlwaysShare][usize::from(c.share)].clone();
            let cfg = EngineConfig {
                contexts: c.contexts,
                queue_capacity: 16,
                policy,
                max_group: c.max_group,
                sink_cost: OpCost::per_tuple(0.1),
                memory,
                parallel,
                fragment_cache: c.cache,
            };
            // The seam runs `contexts` copies of its one query.
            let specs: Vec<QuerySpec> = match c.substrate {
                Seam => vec![q.clone(); c.contexts],
                _ => case.queries.iter().map(|(_, q)| q.clone()).collect(),
            };
            let run = |source| {
                let mut run = Run::new(cat, &cfg, source, usize::MAX, true);
                run.advance(Stop::Idle);
                run.report()
            };
            let report = match c.substrate {
                Batch => run(Source::Batch(&specs)),
                Schedule => run(Source::Schedule(case.queries.clone())),
                // On `workers` threads, the seam sizing its own morsels.
                _ => {
                    let parallel = ParallelConfig::default();
                    let cfg = EngineConfig {
                        contexts: c.workers,
                        parallel,
                        ..cfg.clone()
                    };
                    run_once_on_threads(cat, &specs, &cfg)
                }
            };
            if report.completed + report.failures.len() != specs.len() {
                return Err(format!("{} of {} finished", report.completed, specs.len()));
            }
            let query = |i| if c.substrate == Seam { 0 } else { i };
            let results = report.results.into_iter().enumerate();
            let mut outcomes: Vec<Outcome> =
                results.map(|(i, rows)| (query(i), Ok(rows))).collect();
            for (i, err) in report.failures {
                outcomes[i].1 = Err(err);
            }
            (seen.groups, seen.sharing) = (report.group_sizes, report.sharing);
            seen.response_times = report.response_times;
            outcomes
        }
        Threads => {
            let resources = cordoba::exec::QueryResources::for_config(&memory);
            let cfg = WiringConfig {
                queue_capacity: 16,
                memory,
                parallel,
            };
            let rows = wiring::run_local(cat, &q.plan, &cfg, &resources);
            let held = resources.broker.used();
            if held != 0 {
                return Err(format!("the broker still holds {held} bytes"));
            }
            vec![(0, rows.map(|pages| wiring::page_rows(&pages)))]
        }
    };
    Ok((outcomes, seen))
}

/// `plan`'s operator named plainly (`hashjoin`) and with its label
/// (`hashjoin(Semi)`).
fn labels(plan: &Plan) -> [String; 2] {
    let full = plan.op_name();
    [full.split('(').next().unwrap_or_default().into(), full]
}

/// The columns `x` reads, added to `cols`.
fn expr_cols(x: &ScalarExpr, cols: &mut BTreeSet<usize>) {
    match x {
        ScalarExpr::Col(c) => drop(cols.insert(*c)),
        Add(a, b) | Sub(a, b) | Mul(a, b) => [a, b].iter().for_each(|e| expr_cols(e, cols)),
        _ => {}
    }
}

/// The columns `p` reads, added to `cols`.
fn predicate_cols(p: &Predicate, cols: &mut BTreeSet<usize>) {
    match p {
        Predicate::True => {}
        Predicate::Cmp { left, right, .. } => [left, right].iter().for_each(|e| expr_cols(e, cols)),
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|p| predicate_cols(p, cols)),
        Predicate::Not(p) => predicate_cols(p, cols),
        Predicate::Like { col, .. } => drop(cols.insert(*col)),
    }
}

/// Whether a sort or hash join in `plan` has a consumer that reads a
/// strict subset of its columns — what the wiring narrows. `live` is
/// what `plan`'s consumer reads (`None`: every column); the root of a
/// plan and of its `pivot` are read whole.
fn narrows(case: &Case, plan: &Plan, live: Option<BTreeSet<usize>>, pivot: Option<&Plan>) -> bool {
    let live = live.filter(|_| pivot != Some(plan));
    let width = |p: &Plan| p.try_output_schema(&case.catalog).map_or(0, |s| s.len());
    let strict = live.as_ref().is_some_and(|cols| cols.len() < width(plan));
    let with = |live: &Option<BTreeSet<usize>>, key: usize| {
        live.clone().map(|mut cols| {
            cols.insert(key);
            cols
        })
    };
    let mut cols = BTreeSet::new();
    match plan {
        Plan::Scan { .. } | Plan::Source { .. } => false,
        Plan::Filter {
            input, predicate, ..
        } => {
            predicate_cols(predicate, &mut cols);
            let live = live.map(|live| &live | &cols);
            narrows(case, input, live, pivot)
        }
        Plan::Project { input, exprs, .. } => {
            exprs.iter().for_each(|(_, e)| expr_cols(e, &mut cols));
            narrows(case, input, Some(cols), pivot)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            cols.extend(group_by);
            for (_, agg) in aggs {
                if let Agg::Sum(e) | Agg::Avg(e) | Agg::Min(e) | Agg::Max(e) = agg {
                    expr_cols(e, &mut cols);
                }
            }
            narrows(case, input, Some(cols), pivot)
        }
        Plan::Sort { input, keys, .. } => {
            let live = live.map(|live| live.into_iter().chain(keys.iter().copied()).collect());
            strict || narrows(case, input, live, pivot)
        }
        Plan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
            kind,
            ..
        } => {
            let probe_width = width(probe);
            let split = |cols: &BTreeSet<usize>| -> (BTreeSet<usize>, BTreeSet<usize>) {
                let (probe, build): (_, BTreeSet<usize>) =
                    cols.iter().partition(|&&c| c < probe_width);
                (probe, build.into_iter().map(|c| c - probe_width).collect())
            };
            let (probe_live, mut build_live) = match &live {
                Some(cols) => split(cols),
                None => ((0..probe_width).collect(), (0..width(build)).collect()),
            };
            // An existence join reads its build side's key alone.
            if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
                build_live.clear();
            }
            strict
                || narrows(case, probe, with(&Some(probe_live), *probe_key), pivot)
                || narrows(case, build, with(&Some(build_live), *build_key), pivot)
        }
        Plan::NestedLoopJoin { .. } | Plan::MergeJoin { .. } => {
            let mut children = plan.children().into_iter();
            children.any(|child| narrows(case, child, None, pivot))
        }
    }
}

/// Adds what a passing case covered to `seen`: its operators, its
/// substrate, `shared` or `unshared`, and `spill`, `group>1`,
/// [`GROUPS`], `subsume`,
/// `cache-hit`, `merge-span` (an equal-key group of a merge-join input
/// across a page boundary, pages as the reference lays them out: the
/// sort's and a scanned table's own) and `narrowed` (see [`narrows`]).
fn cover(case: &Case, observed: &Observed, seen: &mut BTreeSet<String>) {
    for plan in case.nodes() {
        seen.extend(labels(plan));
        let Plan::MergeJoin {
            left_key: l,
            right_key: r,
            ..
        } = *plan
        else {
            continue;
        };
        if seen.contains("merge-span") {
            continue;
        }
        for (input, key) in plan.children().into_iter().zip([l, r]) {
            let last = |w: &[Arc<Page>]| w[0].tuple(w[0].rows() - 1).get_int(key);
            let edge = |w: &[Arc<Page>]| last(w) == w[1].tuple(0).get_int(key);
            let Ok(table) = case.output(input) else {
                continue;
            };
            if table.pages().windows(2).any(edge) {
                seen.insert("merge-span".into());
            }
        }
    }
    let sharing = ["unshared", "shared"][usize::from(case.config.share)];
    let flags = [
        (format!("{:?}", case.config.substrate), true),
        (sharing.into(), true),
        ("spill".into(), observed.spilled),
        ("group>1".into(), observed.groups.iter().any(|&g| g > 1)),
        (
            GROUPS.into(),
            observed.groups.len() > 1 && observed.groups.iter().any(|&g| g > 1),
        ),
        ("subsume".into(), observed.sharing.subsume_joins > 0),
        ("cache-hit".into(), observed.sharing.fingerprint_hits > 0),
        (NARROWED.into(), narrowed(case)),
        (MULTI_PAGE.into(), multi_page(case)),
    ];
    seen.extend(flags.into_iter().filter(|f| f.1).map(|f| f.0));
}

/// Whether a sort or hash join of one of `case`'s queries carries less
/// than all of its columns ([`narrows`]).
fn narrowed(case: &Case) -> bool {
    let queries = case.queries.iter();
    queries
        .map(|(_, q)| q)
        .any(|q| narrows(case, &q.plan, None, q.pivot.as_ref()))
}

/// The floor a case reaches when a sort or hash join in it carries
/// less than all of its columns.
pub const NARROWED: &str = "narrowed";

/// The floor a case reaches when its batch ran as two or more groups,
/// one of them shared: on the seam, groups that up to `workers`
/// claiming threads run at once.
pub const GROUPS: &str = "groups>1";

/// Whether `case` ran on the simulator at more than a page a step and
/// one of its scans holds more than one morsel of pages, so some step
/// made several kernel calls.
fn multi_page(case: &Case) -> bool {
    let morsel = morsel_pages(case.config.substrate);
    let pages = |table: &str| case.catalog.get(table).map_or(0, |t| t.pages().len());
    let scans = case.nodes().into_iter().filter_map(|plan| match plan {
        Plan::Scan { table, .. } => Some(pages(table)),
        _ => None,
    });
    matches!(case.config.substrate, Batch | Schedule) && morsel > 1 && scans.max() > Some(morsel)
}

/// The floor a case reaches when it ran [`multi_page`] steps; every
/// default run of a simulator substrate must.
pub const MULTI_PAGE: &str = "multi-page";

/// The four hash-join kinds, as [`Case::has`] names them.
pub const JOIN_KINDS: [&str; 4] = [
    "hashjoin(Inner)",
    "hashjoin(Semi)",
    "hashjoin(Anti)",
    "hashjoin(LeftOuter)",
];

/// Every operator but the hash join, which [`JOIN_KINDS`] names.
const OPERATORS: [&str; 7] = [
    "scan",
    "filter",
    "project",
    "aggregate",
    "sort",
    "nlj",
    "mergejoin",
];

/// A slice's `config` that admits every configuration.
pub fn any(_: &Config) -> bool {
    true
}

/// Runs the first `cases` cases of `substrate` and asserts they reached
/// every operator, every join kind, [`NARROWED`], on the simulator's
/// substrates [`MULTI_PAGE`], and `floor`.
pub fn run_cases(substrate: Substrate, cases: u64, floor: &[&str]) {
    let simulated = matches!(substrate, Batch | Schedule);
    let every = OPERATORS
        .iter()
        .chain(&JOIN_KINDS)
        .chain(&[NARROWED])
        .chain(simulated.then_some(&MULTI_PAGE))
        .chain(floor);
    run(
        substrate,
        0,
        cases,
        any,
        |_| true,
        &every.copied().collect::<Vec<_>>(),
    );
}

/// Runs `cases` cases of `substrate` whose configuration `config` admits
/// and whose plans `keep` admits, none of them one a budget may exhaust
/// ([`may_exhaust`]), and asserts they reached `floor`. The candidates
/// start at a case number `name` hashes to, far past the default cases,
/// so slices do not repeat each other's cases. `config` reads what
/// [`Config::of`] draws apart from the plans, so a case it turns away is
/// never generated; a slice whose `keep` admits fewer than one generated
/// candidate in 64 fails.
pub fn run_slice(
    name: &str,
    substrate: Substrate,
    cases: u64,
    config: impl Fn(&Config) -> bool,
    keep: impl Fn(&Case) -> bool,
    floor: &[&str],
) {
    // FNV-1a, cut to 40 bits.
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    let from = name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv) >> 24;
    let keep = |c: &Case| keep(c) && !may_exhaust(c);
    run(substrate, from, cases, config, keep, floor);
}

fn run(
    substrate: Substrate,
    from: u64,
    cases: u64,
    config: impl Fn(&Config) -> bool,
    keep: impl Fn(&Case) -> bool,
    floor: &[&str],
) {
    let lane = SUBSTRATES.iter().position(|&s| s == substrate).unwrap_or(0) as u64;
    let (mut seen, mut ran) = (BTreeSet::new(), 0);
    let numbers = (from..from + 4096 * cases).map(|i| i * 4 + lane);
    for n in numbers
        .filter(|&n| config(&Config::of(n)))
        .take(64 * cases as usize)
    {
        let case = catch_unwind(|| Case::generate(n));
        let case = case.unwrap_or_else(|p| panic!("case {n}: the generator {}", panic_text(p)));
        if !keep(&case) {
            continue;
        }
        match check(&case) {
            Ok(observed) => cover(&case, &observed, &mut seen),
            Err(why) => fail(n, case, why),
        }
        ran += 1;
        if ran == cases {
            break;
        }
    }
    assert_eq!(ran, cases, "{substrate:?}: too few candidates admitted");
    let label = format!("{substrate:?}");
    let want = [label.as_str()].into_iter().chain(floor.iter().copied());
    let missing: Vec<&str> = want.filter(|l| !seen.contains(*l)).collect();
    assert!(missing.is_empty(), "{substrate:?} missed {missing:?}");
}

/// Replays case `n`.
pub fn replay(n: u64) {
    let case = Case::generate(n);
    if let Err(why) = check(&case) {
        fail(n, case, why);
    }
}

/// Shrinks a failing case and panics with it.
fn fail(n: u64, case: Case, why: String) -> ! {
    let (nodes, rows) = case.size();
    // Candidates that break the reference panic; keep them quiet.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (small, why) = shrink(case, why);
    std::panic::set_hook(hook);
    let (to_nodes, to_rows) = small.size();
    panic!(
        "case {n} fails: {why}\nshrunk from {nodes} plan nodes over {rows} rows to {to_nodes} \
         over {to_rows}:\n{small:?}replay it by adding {n} to REGRESSIONS in tests/equivalence.rs"
    );
}

/// Greedy shrinking: take the first simpler case that still fails,
/// until none does.
fn shrink(mut case: Case, mut why: String) -> (Case, String) {
    'smaller: loop {
        for candidate in simpler(&case).into_iter().filter(valid) {
            if let Err(e) = check(&candidate) {
                (case, why) = (candidate, e);
                continue 'smaller;
            }
        }
        return (case, why);
    }
}

/// Cases one step simpler than `case`.
fn simpler(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    let mut edit = |f: &dyn Fn(&mut Case)| {
        let mut c = Case::new(
            case.catalog.clone(),
            case.queries.clone(),
            case.config.clone(),
        );
        f(&mut c);
        c.queries.sort_by_key(|(at, _)| *at);
        out.push(c);
    };
    for (_, t) in case.catalog.iter().filter(|(_, t)| t.row_count() > 0) {
        edit(&|c| c.catalog.register(halved(t)));
    }
    for (i, (at, q)) in case.queries.iter().enumerate() {
        if case.queries.len() > 1 {
            edit(&|c| drop(c.queries.remove(i)));
        }
        for plan in smaller_plans(&q.plan) {
            let pivot = q.pivot.clone().filter(|p| contains_subtree(&plan, p));
            edit(&|c| (c.queries[i].1.plan, c.queries[i].1.pivot) = (plan.clone(), pivot.clone()));
        }
        if q.pivot.is_some() {
            edit(&|c| c.queries[i].1.pivot = None);
        }
        if *at > 0 {
            edit(&|c| c.queries[i].0 = 0);
        }
    }
    for config in case.config.simpler() {
        edit(&|c| c.config = config.clone());
    }
    out
}

/// The first half of `t`'s pages, or of its rows if it has one page.
fn halved(t: &Table) -> Arc<Table> {
    let (pages, schema) = (t.pages(), t.schema().clone());
    if pages.len() > 1 {
        return Table::from_pages(t.name(), schema, pages[..pages.len() / 2].to_vec());
    }
    let keep = t.row_count() / 2;
    let mut b = PageBuilder::with_page_size(schema.clone(), keep.max(1) * schema.row_width());
    let rows = pages[0].tuples().take(keep);
    rows.for_each(|r| assert!(b.push_row(&r.to_values())));
    let page = (keep > 0).then(|| b.finish());
    Table::from_pages(t.name(), schema, page.into_iter().collect())
}

/// `plan` with one node replaced by one of its children.
fn smaller_plans(plan: &Plan) -> Vec<Plan> {
    let mut out: Vec<Plan> = plan.children().into_iter().cloned().collect();
    for (k, child) in plan.children().into_iter().enumerate() {
        for smaller in smaller_plans(child) {
            let mut p = plan.clone();
            *p.children_mut()[k] = smaller;
            out.push(p);
        }
    }
    out
}

/// Whether a shrunk case is one the generator could have drawn: every
/// plan type-checks and runs on the reference within [`MAX_ROWS`] (a
/// merge input must still be sorted, no column name may clash twice),
/// every pivot is part of its plan, and the seam has the pivot it
/// shares.
fn valid(case: &Case) -> bool {
    let seam_shares = case.config.substrate == Seam && case.config.share;
    let cfg = WiringConfig::default();
    case.queries.iter().all(|(_, q)| {
        let (plan, cat) = (&q.plan, &case.catalog);
        let typed = || wiring::instantiate(&mut Simulator::new(1), cat, plan, "v", &cfg).is_ok();
        let runs = || typed() && materialize(plan, cat).is_some();
        let pivot = q.pivot.as_ref();
        let pivot = pivot.map_or(!seam_shares, |p| contains_subtree(plan, p));
        pivot && catch_unwind(AssertUnwindSafe(runs)).unwrap_or(false)
    })
}
